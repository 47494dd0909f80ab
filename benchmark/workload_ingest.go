package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/records"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/serve"
	"clydesdale/internal/ssb"
)

// ingestLive: writes beside reads on one serve.Session. A writer rolls
// 2048-row fact batches in (and now and then a customer batch no fact row
// references, which fires the dimension invalidation fan-out without
// changing an answer) while a reader cycles the 13 SSB queries and the
// background compactor re-clusters the small roll-in partitions. colstore's
// write path, Snapshots, compaction and serve's invalidation carry the
// load: a read-side gain bought with a write-side cost shows here and on no
// other workload.
//
// The writer is paced by the reader: one fact batch for every
// queriesPerBatch queries answered (about four batches a second on the
// baseline host). Left to itself it rolls in 400 000 rows a second and the
// table is ten times its size by the end of the window; paced by the clock,
// a slower host would see more batches per query.
//
// A slice is a fixed amount of work, ingestSweeps sweeps of the 13 queries,
// not a fixed time, and only the first ingestMeasured slices are measured:
// the table grows by a thirtieth per slice and a query costs half as much
// again at the end of the window as at its start, so a host that got
// further would otherwise report slower queries and a larger
// modeled_s_per_query for the same code. Later slices keep the system under
// load for the rest of the window; their answers are checked like any other.
const (
	ingestFactRows   = 300_000
	ingestBasePart   = 4096
	ingestSweeps     = 4  // reader sweeps per slice: about a second on the baseline host
	ingestMeasured   = 12 // slices measured: what a host at 0.7 of the baseline's speed completes in a 20 s window
	queriesPerBatch  = 10
	compactEvery     = 50 * time.Millisecond
	dimBatchEvery    = 20 // every 20th writer call also rolls a customer batch in
	dimBatchRows     = 200
	batchContents    = 8 // distinct batch contents, used round-robin
	batchSeedOffset  = 0x5EED
	ingestMaxConc    = 2
	ingestQueueDepth = 256
)

var compactOpts = colstore.CompactOptions{MinRows: ingestBasePart, TargetRows: ingestBasePart, ClusterBy: "lo_orderdate"}

// answer is one query result with the acknowledged-batch counts that
// bracket it.
type answer struct {
	name         string
	rs           *results.ResultSet
	kStart, kEnd int64
}

type ingestLive struct {
	e       *env
	sess    *serve.Session
	queries []*core.Query
	// batches[c] holds the rows of batch content c; batch j carries
	// content j % batchContents.
	batches [][]records.Record
	acked   atomic.Int64 // fact batches acknowledged
	calls   int
	owed    int // queries answered since the last batch
	dimNext int64
	slices  int // slices run so far

	mu       sync.Mutex
	answers  []answer
	seenProf map[string]bool
	stats0   serve.Stats
}

func (w *ingestLive) environment() *env { return w.e }

func (w *ingestLive) close() {
	if w.sess != nil {
		w.sess.Close()
	}
	*w = ingestLive{}
}

func (w *ingestLive) setup(h *harness) error {
	if err := checkLoadThreads(loadThreads(h.cfg.workload)); err != nil {
		return err
	}
	e, err := newEnv(h.cfg, ingestFactRows, ssb.LoadOptions{SkipRC: true, PartitionRows: ingestBasePart})
	if err != nil {
		return err
	}
	w.e = e
	w.sess = newSession(e, h.cfg.trace, serve.Options{
		MaxConcurrent:       ingestMaxConc,
		QueueDepth:          ingestQueueDepth,
		IngestPartitionRows: ingestPartRows,
		// No result cache: whether the reader's next repeat of a query finds
		// its last answer still cached depends on whether a roll-in landed
		// in between, that is, on the ratio of the reader's cycle time to
		// the writer's think time. Near one the workload flips between all
		// hits and all misses from run to run.
		ResultCacheBudget: -1,
	})
	w.queries = ssb.Queries()
	w.seenProf = make(map[string]bool)
	w.dimNext = e.gen.CustomerRows()
	// Batch rows come from a second generator with the same dimension
	// cardinalities, so their order dates span the whole calendar: a
	// backfill, whose partitions no zone map can prune until the compactor
	// has re-clustered them.
	bg := ssb.NewBenchGenerator(1, batchContents*batchRows, h.cfg.seed+batchSeedOffset)
	w.batches = make([][]records.Record, batchContents)
	for c := range w.batches {
		for i := int64(0); i < batchRows; i++ {
			w.batches[c] = append(w.batches[c], bg.Lineorder(int64(c)*batchRows+i))
		}
	}
	for _, q := range w.queries {
		if _, _, err := w.sess.Query(context.Background(), q); err != nil {
			return fmt.Errorf("warm-up %s: %w", q.Name, err)
		}
	}
	w.stats0 = w.sess.Stats()
	return nil
}

func (w *ingestLive) slice(h *harness, sl *slice) error {
	sl.phase = "closed"
	sl.throughput = true
	sl.spare = w.slices >= ingestMeasured
	w.slices++
	stopCompactor := w.sess.StartCompactor(compactEvery, compactOpts)
	start := time.Now()
	var wg sync.WaitGroup
	var werr, rerr error
	answered := make(chan struct{}, 1024) // the reader never blocks on the writer: it answers far fewer queries than this in a slice
	wg.Add(2)
	go func() { defer wg.Done(); werr = w.write(h, sl, answered) }()
	go func() { defer wg.Done(); defer close(answered); rerr = w.read(h, sl, answered) }()
	wg.Wait()
	sl.wall = time.Since(start)
	// Quiesce: no compaction may run into the reference kernel. The stopped
	// compactor may be mid-pass; a synchronous pass queues behind it.
	qs := h.log.begin("serve.compact", sl.span, 0)
	stopCompactor()
	_, cerr := w.sess.CompactFact(compactOpts)
	h.log.end(qs)
	if sl.traced {
		readSessionProfiles(h, w.sess, w.seenProf)
	}
	for _, err := range []error{werr, rerr, cerr} {
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *ingestLive) add(sl *slice, s sample) {
	w.mu.Lock()
	sl.samples = append(sl.samples, s)
	w.mu.Unlock()
}

// write is the writer's loop for one slice: a batch for every
// queriesPerBatch answers, until the reader stops.
func (w *ingestLive) write(h *harness, sl *slice, answered <-chan struct{}) error {
	fact := w.e.cat.FactName
	for range answered {
		if w.owed++; w.owed < queriesPerBatch {
			continue
		}
		w.owed = 0
		rows := w.batches[w.acked.Load()%batchContents]
		sp := h.log.begin("serve.rollin", sl.span, 0)
		t0 := time.Now()
		n, err := w.sess.RollIn(fact, func(emit func(records.Record) error) error {
			for _, r := range rows {
				if err := emit(r); err != nil {
					return err
				}
			}
			return nil
		})
		d := time.Since(t0)
		h.log.end(sp)
		if err != nil {
			return fmt.Errorf("roll-in: %w", err)
		}
		w.acked.Add(1)
		w.add(sl, sample{kind: "rollin", raw: d, rows: n, failed: n != batchRows})
		w.calls++
		if w.calls%dimBatchEvery == 0 {
			if err := w.rollInCustomers(h, sl); err != nil {
				return err
			}
		}
	}
	return nil
}

// rollInCustomers appends customers with keys beyond every key the fact
// table references: the five-store invalidation fan-out fires, no answer
// changes.
func (w *ingestLive) rollInCustomers(h *harness, sl *slice) error {
	lo := w.dimNext
	w.dimNext += dimBatchRows
	sp := h.log.begin("serve.rollin.dim", sl.span, 0)
	t0 := time.Now()
	n, err := w.sess.RollIn(ssb.TableCustomer, func(emit func(records.Record) error) error {
		for i := lo; i < lo+dimBatchRows; i++ {
			if err := emit(w.e.gen.Customer(i)); err != nil {
				return err
			}
		}
		return nil
	})
	d := time.Since(t0)
	h.log.end(sp)
	if err != nil {
		return fmt.Errorf("customer roll-in: %w", err)
	}
	w.add(sl, sample{kind: "dimrollin", raw: d, rows: n, failed: n != dimBatchRows})
	return nil
}

// read is the reader's loop for one slice.
func (w *ingestLive) read(h *harness, sl *slice, answered chan<- struct{}) error {
	for i := 0; i < ingestSweeps*len(w.queries); i++ {
		q := w.queries[i%len(w.queries)]
		qid := h.nextQueryID()
		qs := h.log.begin("query", sl.span, qid)
		ss := h.log.begin("serve.query", qs, qid)
		kStart := w.acked.Load()
		t0 := time.Now()
		rs, rep, err := w.sess.Query(context.Background(), q)
		d := time.Since(t0)
		kEnd := w.acked.Load()
		h.log.end(ss)
		h.log.end(qs)
		s := sample{kind: "query", flight: flightOf(q.Name), raw: d, failed: err != nil, roles: roleLatency | roleFlight}
		if err == nil {
			s.hit = rep.Job.JobID == ""
			h.observeCore(rep, d)
		}
		w.add(sl, s)
		if err != nil {
			return fmt.Errorf("%s: %w", q.Name, err)
		}
		w.mu.Lock()
		w.answers = append(w.answers, answer{name: q.Name, rs: rs, kStart: kStart, kEnd: kEnd})
		w.mu.Unlock()
		answered <- struct{}{}
	}
	return nil
}

// verify is the additive oracle. Every batch only adds rows, and SUM is
// additive, so the answer after k batches is the base answer plus the first
// k batches' own answers, group by group. Each result must equal exactly
// one such prefix, with k between the batches acknowledged when the query
// started and one more than those acknowledged when it ended (a batch may be
// published before it is acknowledged). Then the final table is checked: row
// count, and all 13 queries against the full prefix.
func (w *ingestLive) verify(h *harness) (checked, wrong int, err error) {
	base, err := goldens(w.e.gen, w.queries)
	if err != nil {
		return 0, 0, err
	}
	deltas, err := w.batchDeltas()
	if err != nil {
		return 0, 0, err
	}
	expected := func(qi int, k int64) map[string]float64 {
		out := groupSums(base[qi], w.queries[qi].AggName)
		for c := int64(0); c < batchContents; c++ {
			// batches 0..k-1 with content c: ceil((k-c)/batchContents)
			if n := (k - c + batchContents - 1) / batchContents; n > 0 {
				for g, v := range deltas[qi][c] {
					out[g] += float64(n) * v
				}
			}
		}
		return out
	}
	index := make(map[string]int, len(w.queries))
	for i, q := range w.queries {
		index[q.Name] = i
	}
	matches := func(a answer) bool {
		qi := index[a.name]
		got := groupSums(a.rs, w.queries[qi].AggName)
		for k := a.kStart; k <= a.kEnd+1; k++ {
			if sameSums(got, expected(qi, k)) {
				return true
			}
		}
		return false
	}
	for _, a := range w.answers {
		checked++
		if !matches(a) {
			wrong++
		}
	}

	// Final state: nothing acknowledged was lost, nothing appeared twice.
	k := w.acked.Load()
	rows, err := colstore.TableRowCount(w.e.fs, w.e.cat.FactDir)
	if err != nil {
		return checked, wrong, err
	}
	checked++
	if want := w.e.gen.LineorderRows() + k*batchRows; rows != want {
		wrong++
	}
	for _, q := range w.queries {
		rs, _, err := w.sess.Query(context.Background(), q)
		if err != nil {
			return checked, wrong, fmt.Errorf("final %s: %w", q.Name, err)
		}
		checked++
		if !matches(answer{name: q.Name, rs: rs, kStart: k, kEnd: k - 1}) {
			wrong++
		}
	}
	return checked, wrong, nil
}

// batchDeltas evaluates every query over each batch content alone, with
// refexec's plan interpreter: deltas[query][content][group] = SUM.
func (w *ingestLive) batchDeltas() ([][]map[string]float64, error) {
	dims := make(map[string][]records.Record)
	for _, t := range []string{ssb.TableCustomer, ssb.TableSupplier, ssb.TablePart, ssb.TableDate} {
		if err := w.e.gen.Each(t, func(r records.Record) error {
			dims[t] = append(dims[t], r)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	out := make([][]map[string]float64, len(w.queries))
	for qi, q := range w.queries {
		l, err := core.LogicalOf(q, w.e.cat)
		if err != nil {
			return nil, err
		}
		out[qi] = make([]map[string]float64, batchContents)
		for c := range w.batches {
			rows := w.batches[c]
			rs, err := refexec.RunLogical(l, func(table string, fn func(records.Record) error) error {
				src := dims[table]
				if table == w.e.cat.FactName {
					src = rows
				}
				for _, r := range src {
					if err := fn(r); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("refexec %s over batch %d: %w", q.Name, c, err)
			}
			out[qi][c] = groupSums(rs, q.AggName)
		}
	}
	return out, nil
}

// groupSums flattens a result set into group → SUM, the group being every
// column but the aggregate, by name, so column order does not matter. Groups
// whose sum is zero are dropped: an engine may or may not emit a group no
// row contributed a non-zero value to, and the grand total of an empty input
// is one zero row.
func groupSums(rs *results.ResultSet, aggName string) map[string]float64 {
	out := make(map[string]float64, len(rs.Rows))
	names := rs.Schema.Names()
	for _, r := range rs.Rows {
		var key strings.Builder
		var sum float64
		for i, n := range names {
			if n == aggName {
				sum = r.At(i).Float64()
				continue
			}
			key.WriteString(n)
			key.WriteByte('=')
			key.WriteString(r.At(i).String())
			key.WriteByte(';')
		}
		if sum != 0 {
			out[key.String()] += sum
		}
	}
	return out
}

func sameSums(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for g, x := range a {
		y, ok := b[g]
		if !ok {
			return false
		}
		if math.Abs(x-y) > answerTolerance*math.Max(1, math.Max(math.Abs(x), math.Abs(y))) {
			return false
		}
	}
	return true
}

func (w *ingestLive) ledger(h *harness, m metricSet) error {
	sessionLedger(h, m, w.sess, w.stats0, w.e)
	st := w.sess.Stats()
	rolled := float64(st.RollInRows - w.stats0.RollInRows)
	m.set("colstore.write_amp", ratio(rolled+float64(st.CompactedRows-w.stats0.CompactedRows), rolled))
	return nil
}
