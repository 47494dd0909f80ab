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

// TestDimScanNotMemoizedAcrossInvalidation is the regression test for the
// stale-store race in dimScanFor: a derive that started before a dimension
// roll-in and finished after InvalidateTable used to re-insert its
// pre-append FK-range hint and bloom, which then pruned and killed fact rows
// joining the new keys for every later query. The derive racing the roll-in
// may return the old state; the next one must see the appended key.
func TestDimScanNotMemoizedAcrossInvalidation(t *testing.T) {
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
		Pred: expr.Eq(expr.Col("region"), expr.ConstStr("A"))}

	// A dry run counts the block reads of one derive; the roll-in then fires
	// at the last of them, after the scan has listed the table's files.
	hook := &rollInDuringRead{}
	fs.SetReadFaultInjector(hook)
	deriveDimScan(fs, cat, spec)
	if hook.reads.Load() == 0 {
		t.Fatal("a derive reads no block; nothing to race")
	}

	const newKey = 100
	hook = &rollInDuringRead{fireAt: hook.reads.Load(), rollIn: func() {
		_, err := colstore.AppendRowTable(fs, dir, func(emit func(records.Record) error) error {
			return emit(records.Make(schema, records.Int(newKey), records.Str("A")))
		})
		if err != nil {
			t.Error(err)
		}
		eng.InvalidateTable("dim")
	}}
	fs.SetReadFaultInjector(hook)
	racing := eng.dimScanFor(spec)
	fs.SetReadFaultInjector(nil)
	if hint, ok := racing.hint.(expr.BetweenPred); !ok || hint.Hi.Int64() >= newKey {
		t.Fatalf("racing derive's hint = %v; the fixture should have it scan the pre-append table", racing.hint)
	}

	ds := eng.dimScanFor(spec)
	hint, ok := ds.hint.(expr.BetweenPred)
	if !ok {
		t.Fatalf("hint = %v, want a BETWEEN range", ds.hint)
	}
	if hi := hint.Hi.Int64(); hi < newKey {
		t.Errorf("hint after the roll-in is %v: the pre-append derive was memoized, partitions holding fk=%d would be pruned", hint, newKey)
	}
	if ds.bloom == nil || !ds.bloom.MayContain(newKey) {
		t.Errorf("bloom after the roll-in does not admit key %d: fact rows joining it would be killed in the scan", newKey)
	}
}
