package main

import (
	"context"
	"fmt"
	"time"

	"clydesdale/internal/core"
	"clydesdale/internal/hive"
	"clydesdale/internal/results"
	"clydesdale/internal/ssb"
)

// The two closed-loop, single-client workloads: the paper's comparison.

const (
	ssbFactRows  = 600_000
	hiveFactRows = 60_000
)

// hiveQueries are the first query of each flight: Hive repartition plans of
// 2, 5, 5 and 6 MapReduce stages.
var hiveQueries = []string{"Q1.1", "Q2.1", "Q3.1", "Q4.1"}

func queryNames(qs []*core.Query) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = q.Name
	}
	return out
}

func queriesByName(names []string) (map[string]*core.Query, error) {
	out := make(map[string]*core.Query, len(names))
	for _, n := range names {
		q, err := ssb.QueryByName(n)
		if err != nil {
			return nil, err
		}
		out[n] = q
	}
	return out, nil
}

// ssbStar: all 13 SSB queries, round-robin, through core.Engine.Run. One
// star-join job per query with hash tables built once per node: colstore's
// scan and core's build/probe do nearly all the work, mr's shuffle and the
// serving layer almost none.
type ssbStar struct {
	e       *env
	eng     *core.Engine
	queries map[string]*core.Query
	names   []string
	kept    []stored
}

func (w *ssbStar) environment() *env { return w.e }
func (w *ssbStar) close()            { w.e, w.eng, w.kept = nil, nil, nil }

func (w *ssbStar) setup(h *harness) error {
	if err := checkLoadThreads(loadThreads(h.cfg.workload)); err != nil {
		return err
	}
	e, err := newEnv(h.cfg, ssbFactRows, ssb.LoadOptions{SkipRC: true})
	if err != nil {
		return err
	}
	e.collectTraces()
	w.e = e
	w.eng = core.New(e.mr, e.cat, core.Options{})
	w.names = queryNames(ssb.Queries())
	if w.queries, err = queriesByName(w.names); err != nil {
		return err
	}
	// One untimed sweep: a steady-state user finds the hint and bloom memo
	// filled and the allocator warm.
	for _, n := range w.names {
		if _, _, err := w.eng.Run(context.Background(), w.queries[n]); err != nil {
			return fmt.Errorf("warm-up %s: %w", n, err)
		}
	}
	return nil
}

func (w *ssbStar) slice(h *harness, sl *slice) error {
	return closedLoop(h, sl, w.names, func(ctx context.Context, name string, parent, qid int) (*results.ResultSet, error) {
		sp := h.log.begin("core.run", parent, qid)
		t0 := time.Now()
		rs, rep, err := w.eng.Run(ctx, w.queries[name])
		wall := time.Since(t0)
		h.log.end(sp)
		if err == nil {
			h.observeCore(rep, wall)
		}
		return rs, err
	}, w.e, &w.kept)
}

func (w *ssbStar) verify(h *harness) (int, int, error) {
	golden, err := goldenMap(w.e.gen, w.names, w.queries)
	if err != nil {
		return 0, 0, err
	}
	return checkStored(w.kept, golden)
}

func goldenMap(gen *ssb.Generator, names []string, queries map[string]*core.Query) (map[string]*results.ResultSet, error) {
	qs := make([]*core.Query, len(names))
	for i, n := range names {
		qs[i] = queries[n]
	}
	rs, err := goldens(gen, qs)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*results.ResultSet, len(names))
	for i, n := range names {
		out[n] = rs[i]
	}
	return out, nil
}

func (w *ssbStar) ledger(h *harness, m metricSet) error {
	if q := h.led.queries; q > 0 {
		m.set("core.run_self_ms", ms(h.led.runSelf)/float64(q))
	}
	// The scan invariant: every fact row offered to a query is accounted
	// for exactly once.
	c := h.led.counters
	sum := c["scan.rows_pruned"] + c["scan.rows_late_skipped"] + c["scan.rows_bloom_skipped"] + c["CLYDESDALE_PROBE_ROWS"]
	want := int64(h.led.queries) * w.e.gen.LineorderRows()
	if sum != want {
		return fmt.Errorf("scan invariant broken: pruned+late_skipped+bloom_skipped+probed = %d, fact rows x queries = %d", sum, want)
	}
	return nil
}

// hiveShuffle: four queries through the Hive baseline with repartition
// joins over RCFile. The mirror image of ssbStar: mr's sort, spill, shuffle
// and reduce, the records codec and intermediate HDFS writes dominate; CIF
// decode and the core probe are bypassed.
type hiveShuffle struct {
	e       *env
	eng     *hive.Engine
	queries map[string]*core.Query
	kept    []stored
}

func (w *hiveShuffle) environment() *env { return w.e }
func (w *hiveShuffle) close()            { w.e, w.eng, w.kept = nil, nil, nil }

func (w *hiveShuffle) setup(h *harness) error {
	if err := checkLoadThreads(loadThreads(h.cfg.workload)); err != nil {
		return err
	}
	e, err := newEnv(h.cfg, hiveFactRows, ssb.LoadOptions{RCGroupRows: 2048})
	if err != nil {
		return err
	}
	e.collectTraces()
	w.e = e
	w.eng = hive.New(e.mr, e.lay.RCCatalog(), hive.Options{Strategy: hive.Repartition})
	if w.queries, err = queriesByName(hiveQueries); err != nil {
		return err
	}
	for _, n := range hiveQueries {
		if _, _, err := w.eng.Execute(context.Background(), w.queries[n]); err != nil {
			return fmt.Errorf("warm-up %s: %w", n, err)
		}
	}
	return nil
}

func (w *hiveShuffle) slice(h *harness, sl *slice) error {
	return closedLoop(h, sl, hiveQueries, func(ctx context.Context, name string, parent, qid int) (*results.ResultSet, error) {
		sp := h.log.begin("hive.execute", parent, qid)
		rs, rep, err := w.eng.Execute(ctx, w.queries[name])
		h.log.end(sp)
		if err == nil {
			h.observeHive(rep)
		}
		return rs, err
	}, w.e, &w.kept)
}

func (w *hiveShuffle) verify(h *harness) (int, int, error) {
	golden, err := goldenMap(w.e.gen, hiveQueries, w.queries)
	if err != nil {
		return 0, 0, err
	}
	return checkStored(w.kept, golden)
}

// ledger runs the paper's comparison on this workload's dataset: the same
// four queries through Clydesdale, in both currencies, and Q2.1 under Hive's
// mapjoin plan.
func (w *hiveShuffle) ledger(h *harness, m metricSet) error {
	ctx := context.Background()
	timeQueries := func(run func(q *core.Query) error) (host, modeled float64, err error) {
		m0 := w.e.cl.TotalStats().ModelTime
		t0 := time.Now()
		for _, n := range hiveQueries {
			if err := run(w.queries[n]); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(t0).Seconds(), (w.e.cl.TotalStats().ModelTime - m0).Seconds(), nil
	}
	cly := core.New(w.e.mr, w.e.cat, core.Options{})
	runCly := func(q *core.Query) error { _, _, err := cly.Run(ctx, q); return err }
	runHive := func(q *core.Query) error { _, _, err := w.eng.Execute(ctx, q); return err }
	if _, _, err := timeQueries(runCly); err != nil { // warm-up
		return err
	}
	sp := h.log.begin("probe.hive.compare", 0, 0)
	defer h.log.end(sp)
	ch, cm, err := timeQueries(runCly)
	if err != nil {
		return err
	}
	hh, hm, err := timeQueries(runHive)
	if err != nil {
		return err
	}
	m.set("hive.host_x_clydesdale", ratio(hh, ch))
	m.set("hive.modeled_x_clydesdale", ratio(hm, cm))

	mj := hive.New(w.e.mr, w.e.lay.RCCatalog(), hive.Options{Strategy: hive.MapJoin})
	t0 := time.Now()
	_, rep, err := mj.Execute(ctx, w.queries["Q2.1"])
	if err != nil {
		return err
	}
	m.set("hive.mapjoin_q21_ms", ms(time.Since(t0)))
	m.set("hive.hash_loads_per_query", float64(rep.Counters.Get(hive.CtrHashLoads)))
	m.set("hive.hash_load_ms_per_query", float64(rep.Counters.Get(hive.CtrHashLoadNanos))/1e6)
	return nil
}
