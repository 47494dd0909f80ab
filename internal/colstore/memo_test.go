package colstore

import (
	"runtime"
	"testing"

	"clydesdale/internal/obs"
	"clydesdale/internal/records"
)

// TestOneColumnFilePerBlock: every open of a stored column file, from any
// node, shares the one colFile its block keeps, dictionary descriptor
// included, while each reader gets its own cursor; an open as another kind
// is served apart without displacing it; the zone map is kept the same way;
// and a partition deleted and written again is opened from its new bytes.
func TestOneColumnFilePerBlock(t *testing.T) {
	e := newEnv(3, 1<<20)
	writePartitions(t, e, "/memo", []int{50})
	const path = "/memo/p-00000/id.col"
	var first *colFile
	for _, n := range e.cluster.Nodes() {
		f, err := openColumn(e.fs, path, n.ID(), obs.SpanContext{}, records.KindInt64)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = f
		} else if f != first {
			t.Fatalf("%s opened its own copy of %s", n.ID(), path)
		}
	}
	a, b := first.cursor(), first.cursor()
	if _, err := a.next(); err != nil || a.pos != 1 || b.pos != 0 {
		t.Fatalf("cursors share a position: %d and %d (%v)", a.pos, b.pos, err)
	}
	names, err := openColumn(e.fs, "/memo/p-00000/name.col", "", obs.SpanContext{}, records.KindString)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := openColumn(e.fs, "/memo/p-00000/name.col", "node-1", obs.SpanContext{}, records.KindString)
	if names.desc == nil || again.desc != names.desc {
		t.Fatalf("dictionary descriptors %p and %p: one per block wanted", names.desc, again.desc)
	}
	asPlain, err := openColumn(e.fs, path, "", obs.SpanContext{}, records.KindFloat64)
	if err == nil && asPlain == first {
		t.Fatal("an open as another kind returned the kept int64 column")
	}
	if f, _ := openColumn(e.fs, path, "", obs.SpanContext{}, records.KindInt64); f != first {
		t.Fatal("an open as another kind displaced the kept column")
	}

	ps, err := ReadPartitionStats(e.fs, "/memo/p-00000")
	if err != nil || ps == nil || ps.Rows != 50 {
		t.Fatalf("zone map %+v, %v", ps, err)
	}
	if again, _ := ReadPartitionStats(e.fs, "/memo/p-00000"); again != ps {
		t.Fatal("the zone map was decoded twice")
	}

	e.fs.DeletePrefix("/memo/")
	writePartitions(t, e, "/memo", []int{70})
	f, err := openColumn(e.fs, path, "", obs.SpanContext{}, records.KindInt64)
	if err != nil {
		t.Fatal(err)
	}
	if f == first || f.rows != 70 {
		t.Fatalf("after a rewrite: %d rows, same colFile %v", f.rows, f == first)
	}
	if ps, _ := ReadPartitionStats(e.fs, "/memo/p-00000"); ps == nil || ps.Rows != 70 {
		t.Fatalf("after a rewrite the zone map reads %+v", ps)
	}
}

// TestKeyBitsGoWithTheirBloom: a column file keeps one filter bitmap per
// bloom it is probed with, answered again without a probe, and each bit is
// the bloom's verdict on that dictionary entry; a bloom its owner dropped
// takes its bitmap with it at the next insert after a collection.
func TestKeyBitsGoWithTheirBloom(t *testing.T) {
	e := newEnv(2, 1<<20)
	if _, err := WriteCIFTable(e.fs, "/keys", smallSchema, 1024, func(emit func(records.Record) error) error {
		for i := 0; i < 1024; i++ {
			if err := emit(records.Make(smallSchema, records.Int(int64(i)), records.Int(int64(i*7919%500)),
				records.Str("t"), records.Float(0))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	f, err := openColumn(e.fs, "/keys/p-00000/fk.col", "", obs.SpanContext{}, records.KindInt64)
	if err != nil {
		t.Fatal(err)
	}
	if f.enc != EncDictI64 {
		t.Fatalf("fk stored as %s, want %s", f.enc, EncDictI64)
	}
	every := func(step int64) *KeyBloom {
		var keys []int64
		for k := int64(0); k < 500; k += step {
			keys = append(keys, k)
		}
		return NewKeyBloom(keys, 10)
	}
	// Probed with a bloom nothing else holds.
	func() { f.keyBitsFor(every(2)) }()
	if len(f.blooms) != 1 {
		t.Fatalf("%d bitmaps after one bloom", len(f.blooms))
	}

	kept := every(3)
	runtime.GC()
	kb := f.keyBitsFor(kept)
	if len(f.blooms) != 1 {
		t.Errorf("%d bitmaps after the first bloom was dropped and collected, want the kept one's only", len(f.blooms))
	}
	for k := range f.blooms {
		if k.Value() != kept {
			t.Errorf("the bitmap left is keyed by %p, want the kept bloom %p", k.Value(), kept)
		}
	}
	if again := f.keyBitsFor(kept); again != kb {
		t.Error("a second plan with the same bloom made its bitmap again")
	}
	passing := 0
	for c, v := range f.intDict {
		if kb.bits[c] != kept.MayContain(v) {
			t.Fatalf("entry %d (%d): bit %v, bloom says %v", c, v, kb.bits[c], kept.MayContain(v))
		}
		if kb.bits[c] {
			passing++
		}
	}
	if kb.passing != passing || passing == 0 || passing == len(f.intDict) {
		t.Errorf("passing = %d, counted %d of %d entries", kb.passing, passing, len(f.intDict))
	}
}
