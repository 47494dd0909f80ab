package core

import (
	"sync/atomic"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/expr"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/records"
)

// rollInDuringRead is an HDFS read hook that counts block reads and, at read
// number fireAt, runs rollIn: a dimension roll-in landing while a hint
// derivation is scanning the pre-append table.
type rollInDuringRead struct {
	reads  atomic.Int64
	fireAt int64
	rollIn func()
}

func (r *rollInDuringRead) BeforeBlockRead(string, int64) error {
	if r.reads.Add(1) == r.fireAt {
		r.rollIn()
	}
	return nil
}

// TestDimScanReadsItsVersion is the regression test for the stale-store race
// in dimScanFor: a derive that started before a dimension roll-in and
// finished after it must not leave its pre-append FK-range hint and bloom
// where a later query finds them — they would prune and kill fact rows
// joining the new keys. A derive reads the version its spec names and is
// memoized under it: the one racing the roll-in sees the old table whole,
// the next query, pinned at the new version, sees the appended key, and the
// memo keeps the newer version's entry only.
func TestDimScanReadsItsVersion(t *testing.T) {
	schema := records.NewSchema(
		records.F("k", records.KindInt64),
		records.F("region", records.KindString),
	)
	c := cluster.New(cluster.Testing(1))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 1})
	const dir = "/t/dim"
	if _, err := colstore.WriteRowTable(fs, dir, schema, func(emit func(records.Record) error) error {
		for i := int64(0); i < 10; i++ {
			if err := emit(records.Make(schema, records.Int(i), records.Str([]string{"A", "B", "C"}[i%3]))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	cat := &Catalog{
		DimDirs:    map[string]string{"dim": dir},
		DimSchemas: map[string]*records.Schema{"dim": schema},
	}
	eng := New(mr.NewEngine(c, fs, mr.Options{}), cat, Options{})
	spec := &DimSpec{Table: "dim", Schema: schema, FactFK: "fk", DimPK: "k",
		Pred: expr.Eq(expr.Col("region"), expr.ConstStr("A")), Version: 1}

	// A dry run counts the block reads of one derive; the roll-in then fires
	// at the last of them, after the scan has listed the table's files.
	hook := &rollInDuringRead{}
	fs.SetReadFaultInjector(hook)
	if _, err := New(mr.NewEngine(c, fs, mr.Options{}), cat, Options{}).dimScanFor(spec); err != nil {
		t.Fatal(err)
	}
	if hook.reads.Load() == 0 {
		t.Fatal("a derive reads no block; nothing to race")
	}

	const newKey = 100
	hook = &rollInDuringRead{fireAt: hook.reads.Load(), rollIn: func() {
		_, err := eng.Snapshots().AppendRows(dir, func(emit func(records.Record) error) error {
			return emit(records.Make(schema, records.Int(newKey), records.Str("A")))
		})
		if err != nil {
			t.Error(err)
		}
	}}
	fs.SetReadFaultInjector(hook)
	racing, err := eng.dimScanFor(spec)
	fs.SetReadFaultInjector(nil)
	if err != nil || racing.keys == 0 || racing.hi >= newKey {
		t.Fatalf("racing derive = %+v, %v, want the key range of version 1", racing, err)
	}
	// imageRows counts the rows of the memoized image of a version, -1 when
	// there is none.
	imageRows := func(version uint64) int {
		t.Helper()
		img, ok := eng.images.Get("dim", version, "")
		if !ok {
			return -1
		}
		set, err := colstore.OpenColumnSet(img, schema)
		if err != nil {
			t.Fatal(err)
		}
		return set.Rows()
	}
	if n := imageRows(1); n != 10 {
		t.Fatalf("version-1 image read mid-roll-in holds %d rows, want the 10 of version 1", n)
	}
	if got := eng.Snapshots().Versions("/t/fact", dir)[1]; got != 2 {
		t.Fatalf("dimension at version %d after the roll-in, want 2", got)
	}

	next := *spec
	next.Version = 2
	hints, filters := eng.pushdowns([]DimSpec{next})
	if len(hints) != 1 {
		t.Fatalf("hints = %v, want one BETWEEN range", hints)
	}
	if hint, ok := hints[0].(expr.BetweenPred); !ok || hint.Hi.Int64() < newKey {
		t.Errorf("hint after the roll-in is %v: the pre-append derive was memoized, partitions holding fk=%d would be pruned", hints[0], newKey)
	}
	if len(filters) != 1 || !filters[0].Keys.MayContain(newKey) {
		t.Errorf("bloom after the roll-in does not admit key %d: fact rows joining it would be killed in the scan", newKey)
	}
	// A query still pinned at version 1 derives its own state again and
	// leaves both memos to the newer version.
	if ds, err := eng.dimScanFor(spec); err != nil || ds.hi >= newKey {
		t.Errorf("version-1 derive after the roll-in = %+v, %v, want the range of version 1", ds, err)
	}
	if n, m := eng.images.Len(), eng.scans.Len(); n != 1 || m != 1 {
		t.Errorf("memos hold %d images and %d scans, want the version-2 entry of each alone", n, m)
	}
	if n := imageRows(2); n != 11 {
		t.Errorf("version-2 image holds %d rows, want the 11 after the roll-in", n)
	}
}
