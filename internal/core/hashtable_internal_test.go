package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"clydesdale/internal/records"
)

// TestDimHashTableMatchesMapOracle drives the open-addressing table and a
// map[int64][]Value oracle with the same randomized insert stream —
// duplicates, zero and negative keys included — then checks every present
// key probes to the oracle's (last-written) aux values and absent keys miss.
func TestDimHashTableMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := newDimHashTable("oracle", 2, 0) // sizeHint 0: force growth from min capacity
	oracle := make(map[int64][]records.Value)

	keyPool := make([]int64, 500)
	for i := range keyPool {
		switch i {
		case 0:
			keyPool[i] = 0
		case 1:
			keyPool[i] = -1
		case 2:
			keyPool[i] = -(1 << 40)
		default:
			keyPool[i] = rng.Int63n(1<<50) - (1 << 49)
		}
	}
	for i := 0; i < 2000; i++ { // 4x pool size: plenty of duplicate overwrites
		k := keyPool[rng.Intn(len(keyPool))]
		aux := []records.Value{records.Int(int64(i)), records.Str(fmt.Sprintf("v%d", i))}
		h.insert(k, aux)
		oracle[k] = append([]records.Value(nil), aux...)
	}
	h.finalize()

	if h.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle has %d keys", h.Len(), len(oracle))
	}
	for k, want := range oracle {
		aux, ok := h.Probe(k)
		if !ok {
			t.Fatalf("Probe(%d) missed, oracle has it", k)
		}
		if len(aux) != len(want) || aux[0].Int64() != want[0].Int64() || aux[1].Str() != want[1].Str() {
			t.Fatalf("Probe(%d) = %v, want %v", k, aux, want)
		}
	}
	for i := 0; i < 2000; i++ {
		k := rng.Int63()
		if _, present := oracle[k]; present {
			continue
		}
		if _, ok := h.Probe(k); ok {
			t.Fatalf("Probe(%d) hit, oracle lacks it", k)
		}
	}
}

// TestDimHashTableDenseSequentialKeys packs sequential keys to high load so
// linear-probe clusters and tag collisions actually occur, and checks a
// window around the key range for phantom hits.
func TestDimHashTableDenseSequentialKeys(t *testing.T) {
	const n = 10_000
	h := newDimHashTable("dense", 0, n)
	for i := int64(0); i < n; i++ {
		h.insert(i, nil)
	}
	h.finalize()
	for i := int64(-100); i < n+100; i++ {
		_, ok := h.Probe(i)
		if want := i >= 0 && i < n; ok != want {
			t.Fatalf("Probe(%d) = %v, want %v", i, ok, want)
		}
	}
}

// TestDimHashTableNoAuxColumns covers the auxWidth-0 shape (dimensions used
// purely as semi-join filters): Probe must report membership with nil aux.
func TestDimHashTableNoAuxColumns(t *testing.T) {
	h := newDimHashTable("noaux", 0, 4)
	h.insert(42, nil)
	h.finalize()
	if aux, ok := h.Probe(42); !ok || aux != nil {
		t.Fatalf("Probe(42) = (%v, %v), want (nil, true)", aux, ok)
	}
	if _, ok := h.Probe(43); ok {
		t.Fatal("Probe(43) hit an empty neighborhood")
	}
	if h.MemBytes != int64(len(h.slots))*16+int64(len(h.tags)) {
		t.Fatalf("MemBytes = %d with no arena, want slots+tags only", h.MemBytes)
	}
}

// TestDimHashTableMemBytesMatchesEstimate checks the residency contract the
// budget calibration depends on: a table's capacity and MemBytes depend on
// its entries, not on the sizeHint it started from — a table grown from a
// small hint (the row-wise oracle) ends where one allocated for its n
// entries (a build, hence an estimate) starts.
func TestDimHashTableMemBytesMatchesEstimate(t *testing.T) {
	const n = 777
	var want *DimHashTable
	for _, hint := range []int{n, 0, 8, 1000} {
		h := newDimHashTable("est", 1, hint)
		for i := int64(0); i < n; i++ {
			h.insert(i*31, []records.Value{records.Str(fmt.Sprintf("value-%d", i))})
		}
		h.finalize()
		if want == nil {
			want = h
		}
		if h.MemBytes != want.MemBytes || len(h.slots) != len(want.slots) {
			t.Fatalf("hint %d: MemBytes %d at capacity %d, hint %d gives %d at %d", hint, h.MemBytes, len(h.slots), n, want.MemBytes, len(want.slots))
		}
	}
}

// TestDimHashTableDuplicateOverwriteInPlace checks that overwriting a key
// reuses its arena span instead of appending (the arena must not grow with
// duplicate inserts, or MemBytes would charge dead values).
func TestDimHashTableDuplicateOverwriteInPlace(t *testing.T) {
	h := newDimHashTable("dup", 1, 4)
	h.insert(5, []records.Value{records.Int(1)})
	arenaLen := len(h.arena)
	h.insert(5, []records.Value{records.Int(2)})
	if len(h.arena) != arenaLen {
		t.Fatalf("arena grew from %d to %d on duplicate insert", arenaLen, len(h.arena))
	}
	if aux, _ := h.Probe(5); aux[0].Int64() != 2 {
		t.Fatalf("Probe(5) = %v after overwrite, want 2", aux[0])
	}
	if h.Len() != 1 {
		t.Fatalf("Len = %d after duplicate insert, want 1", h.Len())
	}
}

// TestCodeSideTable: the code→offset side table must answer exactly like
// Probe for every dictionary entry (misses as -1) and be built once per
// dictionary descriptor, for the table and every handle share gives out:
// another descriptor, even with the same entries, is another column file's
// and gets a side table of its own.
func TestCodeSideTable(t *testing.T) {
	h := newDimHashTable("side", 1, 0)
	for k := int64(0); k < 100; k += 2 { // even keys only
		h.insert(k, []records.Value{records.Int(k * 10)})
	}
	h.finalize()

	dict := &records.ColumnDict{Ints: []int64{8, 3, 96, -7, 0}}
	offs, built := h.CodeSideTable(dict)
	if offs == nil || !built {
		t.Fatalf("CodeSideTable = (%v, %v), want a freshly built table", offs, built)
	}
	for c, k := range dict.Ints {
		aux, ok := h.Probe(k)
		if !ok {
			if offs[c] != -1 {
				t.Errorf("code %d (key %d): off %d, want -1 (hash table misses)", c, k, offs[c])
			}
			continue
		}
		if offs[c] < 0 {
			t.Fatalf("code %d (key %d): side table missed, hash table hits", c, k)
		}
		got := h.AuxAt(offs[c])
		if len(got) != 1 || got[0].Int64() != aux[0].Int64() {
			t.Errorf("code %d (key %d): AuxAt = %v, want %v", c, k, got, aux)
		}
	}

	// Same dictionary again: cached, not rebuilt.
	offs2, built2 := h.CodeSideTable(dict)
	if built2 {
		t.Error("second CodeSideTable call rebuilt a cached table")
	}
	if &offs2[0] != &offs[0] {
		t.Error("second CodeSideTable call returned a different table")
	}

	// Two handles on the table, as two node builds served by one memo entry
	// get: each finds the side table the table made, and one handle's first
	// probe of a new dictionary builds the side table the other finds.
	a, b := h.share(), h.share()
	if offsA, builtA := a.CodeSideTable(dict); builtA || &offsA[0] != &offs[0] {
		t.Errorf("a shared handle rebuilt the table's side table (built %v)", builtA)
	}
	other := &records.ColumnDict{Ints: []int64{2, 4, 6}}
	offsB, builtB := b.CodeSideTable(other)
	if !builtB {
		t.Fatal("a new dictionary was served a cached side table")
	}
	for c, k := range other.Ints {
		if offsB[c] < 0 {
			t.Errorf("code %d (key %d) missed in a shared handle's side table", c, k)
		}
	}
	if offsA, builtA := a.CodeSideTable(other); builtA || &offsA[0] != &offsB[0] {
		t.Errorf("handle a rebuilt the side table handle b made (built %v)", builtA)
	}
	if _, builtH := h.CodeSideTable(other); builtH {
		t.Error("the table rebuilt the side table a handle made")
	}

	// The same entries under another descriptor: another column file's
	// dictionary, another side table.
	same := &records.ColumnDict{Ints: slices.Clone(dict.Ints)}
	if offs4, built4 := a.CodeSideTable(same); !built4 || &offs4[0] == &offs[0] {
		t.Errorf("a second descriptor with equal entries shared the first's side table (built %v)", built4)
	}

	// String dictionaries cannot feed an int64 join: no side table.
	if offs, _ := h.CodeSideTable(&records.ColumnDict{Strs: []string{"a"}}); offs != nil {
		t.Error("string dictionary produced an int64 side table")
	}
	if offs, _ := h.CodeSideTable(nil); offs != nil {
		t.Error("nil dictionary produced a side table")
	}
}

// TestRacingFirstProbesBuildOneSideTable: eight probe threads, each on a
// handle of its own over one table, meeting a dictionary together, build
// its side table once and all read that one.
func TestRacingFirstProbesBuildOneSideTable(t *testing.T) {
	h := newDimHashTable("side", 1, 0)
	for k := int64(0); k < 100; k++ {
		h.insert(k, []records.Value{records.Int(k)})
	}
	h.finalize()
	dict := &records.ColumnDict{Ints: []int64{5, 500, 7, 99}}
	const threads = 8
	offs := make([][]int32, threads)
	var builds atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range threads {
		handle := h.share()
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var built bool
			if offs[i], built = handle.CodeSideTable(dict); built {
				builds.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("%d racing first probes built %d side tables, want 1", threads, n)
	}
	for i := range offs {
		if &offs[i][0] != &offs[0][0] {
			t.Errorf("thread %d read a side table of its own", i)
		}
	}
	if offs[0][1] != -1 || h.AuxAt(offs[0][2])[0].Int64() != 7 {
		t.Errorf("side table %v answers unlike the table", offs[0])
	}
}
