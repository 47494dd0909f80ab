package mr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"clydesdale/internal/records"
)

// failAfterMapper is the word-count mapper, except that one attempt of one
// task fails once it has mapped `after` records. (Job.FailureInjector is
// consulted before an attempt opens its reader, so a failure after records
// were read has to come from inside the task.)
type failAfterMapper struct {
	baseMapper
	task    string
	attempt int
	after   int

	doomed bool
	seen   int
}

func (m *failAfterMapper) Setup(ctx *TaskContext) error {
	m.doomed = ctx.TaskID == m.task && ctx.Attempt == m.attempt
	return nil
}

func (m *failAfterMapper) Map(_, v records.Record, c Collector) error {
	if m.doomed && m.seen == m.after {
		return errors.New("injected failure after reading records")
	}
	m.seen++
	return c.Collect(v, records.Make(countSchema, records.Int(1)))
}

// TestFailedAttemptCountersAreKept pins what a failed map attempt leaves in
// the job's counters: the records it read and the pairs it collected before
// failing are counted, as they were when every record took the job-wide
// lock. The expected totals were taken at the commit before the per-attempt
// tallies.
func TestFailedAttemptCountersAreKept(t *testing.T) {
	e := newTestEngine(2)
	words := make([]string, 100)
	for i := range words {
		words[i] = string(rune('a' + i%7))
	}
	out := &MemoryOutput{}
	job := wordCountJob(wordSplits(nil, words, words, words), out, 2)
	job.NewMapper = func() Mapper { return &failAfterMapper{task: "m-1", attempt: 1, after: 40} }
	res, err := e.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range countsFrom(out) {
		total += n
	}
	if total != 300 {
		t.Errorf("word counts sum to %d, want 300", total)
	}
	// One pair is a one-letter string key (count byte, kind, length, letter)
	// and an integer 1 (count byte, kind, varint): 7 bytes.
	for _, c := range []struct {
		name string
		want int64
	}{
		{CtrMapTasks, 4},
		{CtrTaskRetries, 1},
		{CtrMapInputRecords, 300 + 41}, // the 41st was read, then refused
		{CtrMapOutputRecords, 300 + 40},
		{CtrMapOutputBytes, 7 * (300 + 40)},
		{CtrReduceInputRecords, 300},
		{CtrReduceInputGroups, 7},
		{CtrReduceOutput, 7},
		{CtrShuffleBytes, 7 * 300},
	} {
		if got := res.Counters.Get(c.name); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
}

// ------------------------------------------------- the path held to a model

// seenGroup is one Reduce call as a reducer saw it.
type seenGroup struct {
	key  string
	vals []string
}

// renderValue names a value: the zero Record, an integer or (out of the
// concatenating combiner) a string.
func renderValue(v records.Record) string {
	switch {
	case v.Len() == 0:
		return "-"
	case v.At(0).Kind() == records.KindString:
		return v.At(0).Str()
	}
	return strconv.FormatInt(v.At(0).Int64(), 10)
}

// concatCombiner replaces a group's values by one string naming them in the
// order they came. With backwards set it holds everything back to Cleanup
// and emits the groups in reverse, which the sort after the combiner has to
// undo; holding a key past Reduce, it clones it (see Reducer).
type concatCombiner struct {
	BaseReducer
	backwards bool
	held      []KV
}

var concatSchema = records.NewSchema(records.F("vals", records.KindString))

func (c *concatCombiner) Reduce(k records.Record, vs Values, out Collector) error {
	var parts []string
	for v, ok := vs.Next(); ok; v, ok = vs.Next() {
		parts = append(parts, renderValue(v))
	}
	joined := records.Make(concatSchema, records.Str(strings.Join(parts, ",")))
	if !c.backwards {
		return out.Collect(k, joined)
	}
	c.held = append(c.held, KV{Key: k.Clone(), Value: joined})
	return nil
}

func (c *concatCombiner) Cleanup(out Collector) error {
	for i := len(c.held) - 1; i >= 0; i-- {
		if err := out.Collect(c.held[i].Key, c.held[i].Value); err != nil {
			return err
		}
	}
	return nil
}

// logReducer appends every group it is given to its partition's log. It
// takes every other value with NextEncoded, starting with a group's first
// value in one group and its second in the next, and holds those bytes to
// the encoding of the record they decode to.
type logReducer struct {
	BaseReducer
	mu     *sync.Mutex
	logs   [][]seenGroup
	part   int
	groups int
}

func (r *logReducer) Setup(ctx *TaskContext) error {
	_, err := fmt.Sscanf(ctx.TaskID, "r-%d", &r.part)
	return err
}

func (r *logReducer) Reduce(k records.Record, vs Values, _ Collector) error {
	g := seenGroup{key: k.At(0).Str()}
	for i := 0; ; i++ {
		if (i+r.groups)%2 == 1 {
			v, ok := vs.Next()
			if !ok {
				break
			}
			g.vals = append(g.vals, renderValue(v))
			continue
		}
		enc, ok := vs.NextEncoded()
		if !ok {
			break
		}
		v, n, err := records.DecodeRecord(enc, nil)
		if err != nil || n != len(enc) || !bytes.Equal(records.AppendRecord(nil, v), enc) {
			return fmt.Errorf("key %q value %d: % x is not one record's encoding (%v)", g.key, i, enc, err)
		}
		g.vals = append(g.vals, renderValue(v))
	}
	r.groups++
	r.mu.Lock()
	r.logs[r.part] = append(r.logs[r.part], g)
	r.mu.Unlock()
	return nil
}

// TestReducersSeeTheReferenceOrder runs random jobs through the engine and
// holds what each reducer saw, group by group and value by value, to the
// definition of the path: all pairs ordered by key bytes, then map task,
// then emit order, cut by partition; with a combiner, one value per key and
// map task naming that task's values in emit order. The reducer takes half
// the values decoded and half as bytes, so both ways hand out the same
// values in the same order, and the bytes are a record's encoding. The
// mapper collects every other pair with its value encoded, in two parts
// (CollectEncodedValue), so both collects land a pair in the same place.
func TestReducersSeeTheReferenceOrder(t *testing.T) {
	// Heavy duplication; keys alike in their first eight encoded bytes (a
	// string key is count, kind, length, then the text) and different after,
	// one of them the text another begins with; the empty string.
	keyPool := []string{"", "a", "b", "k1", "k2", "sharedpfx", "sharedpfx1", "sharedpfx2", "sharedpf"}
	e := newTestEngine(3)
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tasks, parts := 1+rng.Intn(6), 1+rng.Intn(4)
		combiner := rng.Intn(3) // 0 none, 1 in order, 2 backwards
		keys := keyPool[:1+rng.Intn(len(keyPool))]

		type pair struct {
			key        []byte
			task, emit int
			part       int
			text, val  string
		}
		var all []pair
		splits := make([]*MemorySplit, tasks)
		id := int64(0)
		for task := range splits {
			splits[task] = &MemorySplit{}
			n := rng.Intn(40)
			if rng.Intn(4) == 0 {
				n = 0 // a task with nothing to say
			}
			for emit := 0; emit < n; emit++ {
				k := records.Make(wordSchema, records.Str(keys[rng.Intn(len(keys))]))
				v := records.Record{}
				if rng.Intn(5) > 0 {
					id++
					v = records.Make(countSchema, records.Int(id))
				}
				splits[task].Pairs = append(splits[task].Pairs, KV{Key: k, Value: v})
				all = append(all, pair{key: records.AppendRecord(nil, k), task: task, emit: emit,
					part: HashPartitioner(k, parts), text: k.At(0).Str(), val: renderValue(v)})
			}
		}

		// The reference.
		sort.Slice(all, func(i, j int) bool {
			a, b := all[i], all[j]
			if c := bytes.Compare(a.key, b.key); c != 0 {
				return c < 0
			}
			if a.task != b.task {
				return a.task < b.task
			}
			return a.emit < b.emit
		})
		want := make([][]seenGroup, parts)
		for i, p := range all {
			log := &want[p.part]
			if i == 0 || !bytes.Equal(all[i-1].key, p.key) {
				*log = append(*log, seenGroup{key: p.text})
			}
			g := &(*log)[len(*log)-1]
			if combiner != 0 && i > 0 && bytes.Equal(all[i-1].key, p.key) && all[i-1].task == p.task {
				g.vals[len(g.vals)-1] += "," + p.val
			} else {
				g.vals = append(g.vals, p.val)
			}
		}

		var mu sync.Mutex
		got := make([][]seenGroup, parts)
		job := &Job{
			Name:   "property",
			Input:  &MemoryInput{SplitsList: splits},
			Output: DiscardOutput{},
			NewMapper: func() Mapper {
				var enc []byte
				n := 0
				return MapperFunc(func(k, v records.Record, c Collector) error {
					if n++; n%2 == 1 {
						return c.Collect(k, v)
					}
					enc = records.AppendRecord(enc[:0], v)
					return c.(EncodedValueCollector).CollectEncodedValue(k, enc[:1], enc[1:])
				})
			},
			NewReducer:     func() Reducer { return &logReducer{mu: &mu, logs: got} },
			NumReduceTasks: parts,
			KeySchema:      wordSchema,
		}
		if combiner != 0 {
			job.NewCombiner = func() Reducer { return &concatCombiner{backwards: combiner == 2} }
		}
		if _, err := e.Submit(context.Background(), job); err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d (%d tasks, %d partitions, combiner %d):\n got %v\nwant %v", seed, tasks, parts, combiner, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// addRaw appends a pair of raw bytes, for keys no record encodes to: the
// codec is prefix-free, so only here can one key be the beginning of another.
func addRaw(b *pairBuffer, part int, key, val []byte) {
	off := len(b.data)
	b.data = append(append(b.data, key...), val...)
	b.refs = append(b.refs, pairRef{prefix: keyPrefix(key), off: off, klen: uint32(len(key)), vlen: uint32(len(val)), part: uint32(part)})
}

// rawKeys draws keys for the raw-key tests: half from an alphabet of empty
// keys, keys that begin other keys, keys that differ only after their first
// eight bytes or only in trailing zero bytes (which the zero-padded prefix
// cannot tell apart); half random, up to twelve bytes over four byte values,
// so equal prefixes of different keys are common.
func rawKeys(rng *rand.Rand) func() []byte {
	alphabet := [][]byte{nil, {0}, {0, 0}, []byte("a"), []byte("ab"), []byte("abcdefgh"), []byte("abcdefgh\x00"),
		[]byte("abcdefghi"), []byte("abcdefghj"), []byte("abcdefg"), {0xff}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0}}
	return func() []byte {
		if rng.Intn(2) == 0 {
			return alphabet[rng.Intn(len(alphabet))]
		}
		key := make([]byte, rng.Intn(13))
		for i := range key {
			key[i] = []byte{0, 1, 0x7f, 0xff}[rng.Intn(4)]
		}
		return key
	}
}

// TestSortAndMergeOrderRawKeys holds the index sort and the merge to
// sort.SliceStable over arbitrary byte strings. Each run is a map task's
// buffer of up to a few thousand pairs over partitions that differ in every
// byte, sorted and checked against (partition, key bytes, emit order); then
// each partition's runs, one of them or several, are merged and checked
// against (key bytes, run, emit order).
func TestSortAndMergeOrderRawKeys(t *testing.T) {
	parts := []int{0, 1, 2, 255, 256, 65537, 1<<24 | 1}
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nextKey := rawKeys(rng)
		type raw struct {
			key            []byte
			part, run, seq int
		}
		byKey := func(want []raw) {
			sort.SliceStable(want, func(i, j int) bool { return bytes.Compare(want[i].key, want[j].key) < 0 })
		}
		numParts := 1 + rng.Intn(len(parts))
		bufs := make([]pairBuffer, 1+rng.Intn(6))
		var all []raw
		for r := range bufs {
			b := &bufs[r]
			n := rng.Intn(30)
			if rng.Intn(2) == 0 {
				n = rng.Intn(3000)
			}
			var want []raw
			for seq := 0; seq < n; seq++ {
				key, part := nextKey(), parts[rng.Intn(numParts)]
				addRaw(b, part, key, []byte(fmt.Sprintf("%d/%d", r, seq)))
				want = append(want, raw{key, part, r, seq})
			}
			all = append(all, want...)
			b.sort()
			byKey(want)
			sort.SliceStable(want, func(i, j int) bool { return want[i].part < want[j].part })
			for i, w := range want {
				ref := &b.refs[i]
				key, val := ref.key([][]byte{b.data}), string(ref.value([][]byte{b.data}))
				if int(ref.part) != w.part || !bytes.Equal(key, w.key) || val != fmt.Sprintf("%d/%d", w.run, w.seq) {
					t.Errorf("seed %d: run %d pair %d is %d:%q=%s, want %d:%q=%d/%d", seed, r, i, ref.part, key, val, w.part, w.key, w.run, w.seq)
					return false
				}
			}
		}
		for _, part := range parts[:numParts] {
			runs := make([]pairRun, len(bufs))
			for r := range bufs {
				refs := bufs[r].refs
				lo := sort.Search(len(refs), func(i int) bool { return int(refs[i].part) >= part })
				hi := sort.Search(len(refs), func(i int) bool { return int(refs[i].part) > part })
				runs[r] = pairRun{data: bufs[r].data, refs: refs[lo:hi]}
			}
			var want []raw
			for _, w := range all {
				if w.part == part {
					want = append(want, w)
				}
			}
			byKey(want)
			m := mergeRuns(runs)
			if len(m.refs) != len(want) {
				t.Errorf("seed %d: partition %d merged %d pairs, want %d", seed, part, len(m.refs), len(want))
				return false
			}
			for i, w := range want {
				key := m.refs[0].key(m.data)
				if val := string(m.pop()); !bytes.Equal(key, w.key) || val != fmt.Sprintf("%d/%d", w.run, w.seq) {
					t.Errorf("seed %d: partition %d pair %d is %q=%s, want %q=%d/%d", seed, part, i, key, val, w.key, w.run, w.seq)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestGroupsSplitOnKeyLength: keys of at most eight bytes whose zero-padded
// prefixes are equal but whose lengths differ are different keys, so they
// form separate groups; so do keys that differ only after byte eight. Every
// key here decodes as the empty record (its trailing bytes unread), so only
// the values say which group a reducer was given. (The empty key, which the
// sort tests use, does not decode as a record at all.)
func TestGroupsSplitOnKeyLength(t *testing.T) {
	keys := [][]byte{{0}, {0, 0}, {0, 0, 0, 0, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 0, 0, 0, 1}}
	var b pairBuffer
	for i := 0; i < 40; i++ {
		k := i % len(keys)
		addRaw(&b, 0, keys[k], records.AppendRecord(nil, records.Make(countSchema, records.Int(int64(k)))))
	}
	b.sort()
	var got [][]int64
	groups, err := forEachGroup(mergeRuns([]pairRun{{data: b.data, refs: b.refs}}), nil, countSchema, func(_ records.Record, vs Values) error {
		var g []int64
		for v, ok := vs.Next(); ok; v, ok = vs.Next() {
			g = append(g, v.At(0).Int64())
		}
		got = append(got, g)
		return nil
	})
	if err != nil || groups != int64(len(keys)) {
		t.Fatalf("%d groups (%v), want %d", groups, err, len(keys))
	}
	for k, g := range got {
		if len(g) != 40/len(keys) || slices.ContainsFunc(g, func(v int64) bool { return v != int64(k) }) {
			t.Errorf("group %d holds %v, want %d values of key %d", k, g, 40/len(keys), k)
		}
	}
}

// TestCollectFromFourGoroutines is the multi-threaded runner's use of the
// collector, for the race detector: four threads share one mapCollector, two
// of them collecting through CollectEncodedValue, and the sorted output holds
// every pair once, each thread's pairs of one key in the order that thread
// emitted them.
func TestCollectFromFourGoroutines(t *testing.T) {
	const threads, perThread, parts = 4, 2000, 3
	var tl tally
	mc := newMapCollector(parts, HashPartitioner, &tl)
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key, val := records.New(countSchema), records.New(countSchema)
			var enc []byte
			for i := 0; i < perThread; i++ {
				key.Set(0, records.Int(int64(i%17)))
				val.Set(0, records.Int(int64(th*perThread+i)))
				var err error
				if th%2 == 0 {
					err = mc.Collect(key, val)
				} else {
					enc = records.AppendRecord(enc[:0], val)
					err = mc.CollectEncodedValue(key, enc)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	out := mc.sorted("node-0")
	if tl.mapOutput != threads*perThread || len(out.pairs.refs) != threads*perThread {
		t.Fatalf("%d pairs tallied, %d indexed, want %d", tl.mapOutput, len(out.pairs.refs), threads*perThread)
	}
	var bytesTotal int64
	seen := 0
	for p := 0; p < parts; p++ {
		bytesTotal += out.bytes[p]
		last := map[[2]int64]int64{} // (key, thread) → last value seen
		_, err := forEachGroup(mergeRuns([]pairRun{out.run(p)}), countSchema, countSchema, func(k records.Record, vs Values) error {
			if HashPartitioner(k, parts) != p {
				t.Errorf("key %v in partition %d", k, p)
			}
			for v, ok := vs.Next(); ok; v, ok = vs.Next() {
				seen++
				n := v.At(0).Int64()
				at := [2]int64{k.At(0).Int64(), n / perThread}
				if prev, ok := last[at]; ok && prev >= n {
					t.Errorf("key %d: thread %d's %d after its %d", at[0], at[1], n, prev)
				}
				last[at] = n
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if seen != threads*perThread || bytesTotal != tl.mapOutputBytes {
		t.Errorf("%d pairs and %d bytes in the runs, %d and %d collected", seen, bytesTotal, threads*perThread, tl.mapOutputBytes)
	}
}

// ------------------------------------------------------ buffer lifetimes

// sumPairs is a combiner over (word, n) values: one (word, sum) per group.
type sumPairs struct{ BaseReducer }

func (sumPairs) Reduce(k records.Record, vs Values, out Collector) error {
	var sum int64
	for v, ok := vs.Next(); ok; v, ok = vs.Next() {
		sum += v.At(1).Int64()
	}
	return out.Collect(k, records.Make(pairSchema, k.At(0), records.Int(sum)))
}

var pairSchema = records.NewSchema(records.F("word", records.KindString), records.F("n", records.KindInt64))

// lifetimeJob is a shuffle job over seeded random (word, n) pairs in six
// splits, combined and reduced by three reducers that write every value they
// are given, alternately as bytes and decoded.
func lifetimeJob(seed int64, out *MemoryOutput) *Job {
	rng := rand.New(rand.NewSource(seed))
	splits := make([]*MemorySplit, 6)
	for i := range splits {
		splits[i] = &MemorySplit{}
		for j := 500 + rng.Intn(1000); j > 0; j-- {
			w := records.Str(fmt.Sprintf("w%d-%d", rng.Intn(400), seed))
			splits[i].Pairs = append(splits[i].Pairs, KV{Value: records.Make(pairSchema, w, records.Int(rng.Int63n(1000)))})
		}
	}
	return &Job{
		Name:   "lifetime",
		Input:  &MemoryInput{SplitsList: splits},
		Output: out,
		NewMapper: func() Mapper {
			return MapperFunc(func(_, v records.Record, c Collector) error {
				return c.Collect(records.Make(wordSchema, v.At(0)), v)
			})
		},
		NewCombiner: func() Reducer { return sumPairs{} },
		NewReducer: func() Reducer {
			return ReducerFunc(func(k records.Record, vs Values, c Collector) error {
				for {
					enc, ok := vs.NextEncoded()
					if !ok {
						return nil
					}
					if err := c.(EncodedCollector).CollectEncoded(enc); err != nil {
						return err
					}
					v, ok := vs.Next()
					if !ok {
						return nil
					}
					if err := c.Collect(k, v); err != nil {
						return err
					}
				}
			})
		},
		NumReduceTasks: 3,
		KeySchema:      wordSchema,
	}
}

// renderOutput names every value a job wrote, sorted.
func renderOutput(out *MemoryOutput) []string {
	var got []string
	for _, kv := range out.Pairs() {
		got = append(got, kv.Value.String())
	}
	slices.Sort(got)
	return got
}

// TestRecycledBuffersOutliveNoJob: two shuffle jobs on one engine, the
// second over other data, so that its tasks run in the arrays the first
// one's gave back. What the first job collected is unchanged after the
// second has run, and each job's output is what a fresh engine makes of the
// same job.
func TestRecycledBuffersOutliveNoJob(t *testing.T) {
	run := func(e *Engine, seed int64) []string {
		out := &MemoryOutput{}
		if _, err := e.Submit(context.Background(), lifetimeJob(seed, out)); err != nil {
			t.Fatal(err)
		}
		return renderOutput(out)
	}
	e := newTestEngine(3)
	firstOut := &MemoryOutput{}
	if _, err := e.Submit(context.Background(), lifetimeJob(1, firstOut)); err != nil {
		t.Fatal(err)
	}
	first := renderOutput(firstOut)
	second := run(e, 2)
	if again := renderOutput(firstOut); !slices.Equal(again, first) {
		t.Errorf("the first job's output changed when the second ran")
	}
	if len(first) == 0 || len(second) == 0 {
		t.Fatalf("outputs of %d and %d values", len(first), len(second))
	}
	for i, got := range [][]string{first, second} {
		if want := run(newTestEngine(3), int64(i+1)); !slices.Equal(got, want) {
			t.Errorf("job %d on a used engine wrote %d values, a fresh engine %d; they differ", i+1, len(got), len(want))
		}
	}
}

// ------------------------------------------------------- allocation gates

// coldAllocsPerRun is testing.AllocsPerRun of f run on empty pools, so that
// the count hangs neither on what earlier code left in them nor on chance
// (the race detector drops a random quarter of what is put back), and with
// the garbage collector off: a collection clears the pools, and the next
// Get allocates them anew.
func coldAllocsPerRun(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, func() {
		drainPool(&dataPool)
		drainPool(&refsPool)
		f()
	})
}

// drainPool empties every size class of sp.
func drainPool[E any](sp *slicePool[E]) {
	for c := range sp.classes {
		for sp.classes[c].Get() != nil {
		}
	}
}

// TestCollectAllocatesByDoubling: 10 000 pairs of about ten bytes cost the
// collector, its partition sizes and the growths by doubling of a 100 KB
// buffer from 256 bytes and of the index from one entry: 29 allocations
// (append's growth by a quarter took 46). The pools are emptied first: this
// is a task's collect with nothing to recycle.
func TestCollectAllocatesByDoubling(t *testing.T) {
	key, val := records.New(countSchema), records.New(countSchema)
	allocs := coldAllocsPerRun(5, func() {
		mc := newMapCollector(4, HashPartitioner, &tally{})
		for i := 0; i < 10000; i++ {
			if err := mc.Collect(key.Set(0, records.Int(int64(i))), val.Set(0, records.Int(int64(i)))); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 30 {
		t.Errorf("10 000 Collects allocated %.0f times, want at most 30", allocs)
	}
}

// TestMergeAllocatesPerRunNotPerRecord: merging and grouping eight runs
// allocates the same few times whether they hold 800 pairs or 40 000, with
// the pools emptied first.
func TestMergeAllocatesPerRunNotPerRecord(t *testing.T) {
	const numRuns = 8
	build := func(perRun int) []pairRun {
		runs := make([]pairRun, numRuns)
		key, val := records.New(countSchema), records.New(countSchema)
		for r := range runs {
			var b pairBuffer
			for i := 0; i < perRun; i++ {
				b.add(0, key.Set(0, records.Int(int64(i/3))), val.Set(0, records.Int(int64(i))), nil)
			}
			b.sort()
			runs[r] = pairRun{data: b.data, refs: b.refs}
		}
		return runs
	}
	measure := func(perRun int) float64 {
		runs := build(perRun)
		return coldAllocsPerRun(3, func() {
			var sum int64
			groups, err := forEachGroup(mergeRuns(runs), countSchema, countSchema, func(_ records.Record, vs Values) error {
				for v, ok := vs.Next(); ok; v, ok = vs.Next() {
					sum += v.At(0).Int64()
				}
				return nil
			})
			if err != nil || groups != int64((perRun+2)/3) {
				t.Fatalf("%d groups, %v", groups, err)
			}
		})
	}
	small, large := measure(100), measure(5000)
	if small != large || large > numRuns {
		t.Errorf("merge allocated %.0f times over 800 pairs and %.0f over 40 000, want the same and at most %d", small, large, numRuns)
	}
}

// TestWarmShuffleAllocationsSteady: after one warm-up job, each of 20
// consecutive BenchmarkShuffle jobs allocates at most twice their median,
// counted with the collector off. A pool that drops an array for being too
// small for the request at hand made single jobs allocate 1.6 MB against a
// median of 21 KB. The race detector drops a random quarter of what is put
// back in a pool, so it is skipped there.
func TestWarmShuffleAllocationsSteady(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled arrays at random")
	}
	run := shuffleJob(t, 200_000)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run()
	allocs := make([]uint64, 20)
	for i := range allocs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		allocs[i] = after.TotalAlloc - before.TotalAlloc
	}
	median := slices.Clone(allocs)
	slices.Sort(median)
	for i, b := range allocs {
		if b > 2*median[len(median)/2] {
			t.Errorf("warm job %d allocated %d bytes, twice the median of %d is the limit (all: %v)", i, b, median[len(median)/2], allocs)
		}
	}
}
