package core_test

import (
	"context"
	"testing"

	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/results"
	"clydesdale/internal/ssb"
)

// TestPruningOracleAllQueries is the zone-map soundness oracle: every SSB
// query must return identical results with scan pruning and late
// materialization enabled and disabled — the optimizations may only avoid
// work, never change answers. It also pins that the selective date-filtered
// queries actually prune partitions (the generator's arrival-ordered
// lo_orderdate gives partitions tight date-key ranges, and the FK-range
// hints derived from dimension predicates refute the out-of-range ones).
func TestPruningOracleAllQueries(t *testing.T) {
	e := newEnv(t, 3, 0.002)
	opt := e.engine(core.Options{})
	base := e.engine(core.Options{Ablate: core.NoScanPruning | core.NoLateMaterialization})

	mustPrune := map[string]bool{"Q1.1": true, "Q3.4": true}
	var totalPruned int64
	for _, q := range ssb.Queries() {
		got, rep, err := opt.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("%s optimized: %v", q.Name, err)
		}
		want, brep, err := base.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("%s baseline: %v", q.Name, err)
		}
		if ok, why := results.Equivalent(got, want, 1e-9); !ok {
			t.Errorf("%s: pruned and unpruned runs disagree: %s", q.Name, why)
		}
		if brep.Job.Counters.Get(colstore.CtrPartitionsPruned) != 0 {
			t.Errorf("%s: NoScanPruning still pruned %d partitions", q.Name, brep.Job.Counters.Get(colstore.CtrPartitionsPruned))
		}
		totalPruned += rep.Job.Counters.Get(colstore.CtrPartitionsPruned)
		if mustPrune[q.Name] && rep.Job.Counters.Get(colstore.CtrPartitionsPruned) == 0 {
			t.Errorf("%s: expected zone maps to prune partitions, pruned 0", q.Name)
		}
		if rep.Job.Counters.Get(colstore.CtrPartitionsPruned) > 0 && rep.Job.Counters.Get(colstore.CtrBytesSkipped) == 0 {
			t.Errorf("%s: pruned %d partitions but skipped 0 bytes", q.Name, rep.Job.Counters.Get(colstore.CtrPartitionsPruned))
		}
	}
	if totalPruned == 0 {
		t.Error("no SSB query pruned any partition")
	}
}

// TestCompressedExecutionOracle is the soundness oracle for PR 7's
// compressed-execution paths: every SSB query must return identical results
// with code-space predicates and bloom pushdown enabled, each disabled
// alone, and both disabled. It also pins that the paths actually fire —
// bloom filters kill fact rows on the selective join-heavy queries and the
// probe answers rows out of dictionary side tables — so the oracle cannot
// rot into comparing a feature against itself.
func TestCompressedExecutionOracle(t *testing.T) {
	e := newEnv(t, 3, 0.002)
	opt := e.engine(core.Options{})
	ablations := map[string]*core.Engine{
		"no-code-preds": e.engine(core.Options{Ablate: core.NoCodeSpacePreds}),
		"no-bloom":      e.engine(core.Options{Ablate: core.NoBloomPushdown}),
		"neither":       e.engine(core.Options{Ablate: core.NoCodeSpacePreds | core.NoBloomPushdown}),
	}

	mustBloom := map[string]bool{"Q2.1": true, "Q2.2": true}
	var totalBloom, totalSide, totalCodeProbe int64
	for _, q := range ssb.Queries() {
		got, rep, err := opt.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("%s optimized: %v", q.Name, err)
		}
		for name, eng := range ablations {
			want, wrep, err := eng.Run(context.Background(), q)
			if err != nil {
				t.Fatalf("%s %s: %v", q.Name, name, err)
			}
			if ok, why := results.Equivalent(got, want, 1e-9); !ok {
				t.Errorf("%s: optimized and %s runs disagree: %s", q.Name, name, why)
			}
			if name == "no-bloom" && wrep.Job.Counters.Get(colstore.CtrRowsBloomSkipped) != 0 {
				t.Errorf("%s: NoBloomPushdown still bloom-skipped %d rows", q.Name, wrep.Job.Counters.Get(colstore.CtrRowsBloomSkipped))
			}
		}
		totalBloom += rep.Job.Counters.Get(colstore.CtrRowsBloomSkipped)
		c := rep.Job.Counters
		totalSide += c.Get(core.CtrCodeSideTables)
		totalCodeProbe += c.Get(core.CtrCodeProbeRows)
		if mustBloom[q.Name] && rep.Job.Counters.Get(colstore.CtrRowsBloomSkipped) == 0 {
			t.Errorf("%s: expected bloom pushdown to skip rows, skipped 0", q.Name)
		}
	}
	if totalBloom == 0 {
		t.Error("no SSB query bloom-skipped any row")
	}
	if totalSide == 0 || totalCodeProbe == 0 {
		t.Errorf("code-space probe never fired: side_tables=%d code_probe_rows=%d", totalSide, totalCodeProbe)
	}
}
