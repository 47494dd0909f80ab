package colstore

import (
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
