package core

import (
	"fmt"
	"math/rand"
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
// Probe for every dictionary entry (misses as -1), be built once per
// dictionary fingerprint, and verify contents on fingerprint collisions
// instead of trusting the cached table.
func TestCodeSideTable(t *testing.T) {
	h := newDimHashTable("side", 1, 0)
	for k := int64(0); k < 100; k += 2 { // even keys only
		h.insert(k, []records.Value{records.Int(k * 10)})
	}
	h.finalize()

	dict := &records.ColumnDict{ID: 42, Ints: []int64{8, 3, 96, -7, 0}}
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

	// A different dictionary with a colliding fingerprint must be detected
	// by content comparison and rebuilt, not served the stale table.
	collide := &records.ColumnDict{ID: 42, Ints: []int64{2, 4, 6}}
	offs3, built3 := h.CodeSideTable(collide)
	if !built3 {
		t.Fatal("colliding-fingerprint dictionary was served the cached table")
	}
	for c, k := range collide.Ints {
		if offs3[c] < 0 {
			t.Errorf("code %d (key %d) missed after collision rebuild", c, k)
		}
	}

	// String dictionaries cannot feed an int64 join: no side table.
	if offs, _ := h.CodeSideTable(&records.ColumnDict{ID: 7, Strs: []string{"a"}}); offs != nil {
		t.Error("string dictionary produced an int64 side table")
	}
	if offs, _ := h.CodeSideTable(nil); offs != nil {
		t.Error("nil dictionary produced a side table")
	}
}
