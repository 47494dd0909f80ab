package core_test

import (
	"context"
	"runtime"
	"testing"

	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/records"
	"clydesdale/internal/ssb"
)

// TestSideTablesOncePerEngine: a second sweep of the 13 SSB queries on one
// engine builds no side table — every (dimension table, fact dictionary)
// pair's was made by the first — and answers, probes the same rows and
// answers the same rows by code as the first.
func TestSideTablesOncePerEngine(t *testing.T) {
	e := newEnv(t, 3, 0.002)
	eng := e.engine(core.Options{})
	type sweepOut struct {
		answer             string
		probed, codeProbed int64
	}
	sweep := func() (out []sweepOut, built int64) {
		for _, q := range ssb.Queries() {
			rs, rep, err := eng.Run(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			c := rep.Job.Counters
			built += c.Get(core.CtrCodeSideTables)
			out = append(out, sweepOut{rs.String(), c.Get(core.CtrProbeRows), c.Get(core.CtrCodeProbeRows)})
		}
		return out, built
	}
	first, builtFirst := sweep()
	second, builtSecond := sweep()
	if builtFirst == 0 {
		t.Fatal("the first sweep built no side table: nothing probed by code")
	}
	if builtSecond != 0 {
		t.Errorf("the second sweep built %d side tables, want 0 (the first built %d)", builtSecond, builtFirst)
	}
	for i, q := range ssb.Queries() {
		if first[i] != second[i] {
			t.Errorf("%s: second sweep answered %q, probed %d rows, %d by code; first %q, %d, %d", q.Name,
				second[i].answer, second[i].probed, second[i].codeProbed, first[i].answer, first[i].probed, first[i].codeProbed)
		}
	}
}

// TestSideTableGoesWithItsDictionary: a side table is keyed by its fact
// column file's dictionary, held weakly. Over 20 rounds of two small
// roll-ins and a compaction that retires them, with a query after each
// step, the memoized date table never holds more side tables than the fact
// table has partitions, and once a collection has run, the next insert
// leaves no entry whose dictionary is gone.
func TestSideTableGoesWithItsDictionary(t *testing.T) {
	e := newEnv(t, 3, 0.002)
	eng := e.engine(core.Options{})
	cat := e.lay.Catalog()
	q, err := ssb.QueryByName("Q2.1")
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		t.Helper()
		if _, _, err := eng.Run(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	// dateSides is what the engine's one date table holds, and how many
	// partitions the fact table has.
	dateSides := func() (held, live, parts int) {
		t.Helper()
		var spec *core.DimSpec
		for _, d := range pinnedDims(t, eng, q) {
			if d.Table == "date" {
				spec = &d
			}
		}
		h := eng.BuiltTable(cat.DimDirs["date"], spec)
		if h == nil {
			t.Fatal("the engine's memo holds no date table")
		}
		sn, err := eng.Snapshots().Acquire(cat.FactDir)
		if err != nil {
			t.Fatal(err)
		}
		defer sn.Release()
		held, live = h.SideTables()
		return held, live, len(sn.Parts)
	}
	run()
	if held, _, _ := dateSides(); held == 0 {
		t.Fatal("Q2.1 built no side table on the date table")
	}
	next := e.gen.LineorderRows()
	rollIn := func() {
		t.Helper()
		if _, _, err := eng.Snapshots().RollIn(cat.FactDir, 1000, func(emit func(records.Record) error) error {
			for range 300 {
				if err := emit(e.gen.Lineorder(next)); err != nil {
					return err
				}
				next++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for round := range 20 {
		rollIn()
		rollIn()
		run()
		res, err := colstore.Compact(eng.Snapshots(), cat.FactDir, colstore.CompactOptions{MinRows: 1000, TargetRows: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Retired) == 0 {
			t.Fatalf("round %d: the compaction retired no partition", round)
		}
		runtime.GC()
		runtime.GC() // a pooled scan block drops its dictionaries on the second
		run()
		held, live, parts := dateSides()
		if held != live {
			t.Errorf("round %d: %d side tables held after an insert, %d of them with their dictionary", round, held, live)
		}
		if held > parts {
			t.Errorf("round %d: %d side tables held over %d fact partitions", round, held, parts)
		}
	}
}
