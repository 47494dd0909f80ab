package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"clydesdale/internal/colstore"
	"clydesdale/internal/mr"
	"clydesdale/internal/plan"
	"clydesdale/internal/results"
)

// The §5.1 fallback: "for the rare case where the cluster nodes have little
// memory or for unusual datasets with extremely large dimension tables, one
// could reduce the memory footprint by joining with a single hash table at
// a time. A subsequent pass over the intermediate joined result can be made
// to join with the remaining dimension tables."
//
// runStaged implements that strategy: one map-only MapReduce job per join
// step — the star-join runner over a single dimension, so still with
// Clydesdale's per-node shared hash table (built from the local dimension
// cache, one task per node, JVM reuse), unlike Hive's broadcast mapjoin —
// writing each intermediate to HDFS, followed by an aggregation job. Memory
// high-water per node drops from the sum of the dimension tables to the
// largest single one.

var stagedSeq atomic.Int64

// runStaged executes a plan's pipeline one join pass per step. It is not
// limited to star shapes: a snowflake edge is one more pass, probing the FK
// its parent's pass carried, so the staged plan runs any shape the IR can
// express.
func (e *Engine) runStaged(ctx context.Context, p *plan.Physical, pin *Pin) (*results.ResultSet, *Report, error) {
	start := time.Now()
	sh, steps := p.Shape, p.Steps
	if len(steps) == 0 {
		return nil, nil, fmt.Errorf("core: staged plan for %s has no joins", sh.Name)
	}
	dims := pin.DimSpecs(steps)
	if err := e.ensureCached(ctx, dims); err != nil {
		return nil, nil, err
	}
	// Only depth-1 FKs are fact columns, so only those dimensions may feed
	// the fact scan's prune hints, blooms and eager-read set.
	var head []DimSpec
	for i := range steps {
		if steps[i].Depth == 1 {
			head = append(head, dims[i])
		}
	}

	tmp := fmt.Sprintf("/tmp/clydesdale/%s-staged-%d", sh.Name, stagedSeq.Add(1))
	defer e.mr.FS().DeletePrefix(tmp)

	// The first pass scans the fact table and applies the fact predicate;
	// every later pass reads the previous pass's row-format intermediate,
	// which nothing rolls into.
	var input mr.InputFormat = e.factScan(sh, head, pin)
	factPred := sh.FactPred
	var inter *colstore.RowInput

	counters := mr.NewCounters()
	for i := range steps {
		st := &steps[i]
		outDir := fmt.Sprintf("%s/pass-%d", tmp, i+1)
		res, err := e.runJoinPass(ctx, fmt.Sprintf("clydesdale-staged-%s-%s", sh.Name, st.Table), input,
			&colstore.RowOutput{Dir: outDir, Schema: st.Out},
			newRowRunner(e, dims[i:i+1], factPred, st.Out))
		if err != nil {
			return nil, nil, fmt.Errorf("core: %s staged pass %d (%s): %w", sh.Name, i+1, st.Table, err)
		}
		counters.Merge(res.Counters)
		inter = &colstore.RowInput{Dir: outDir, Schema: st.Out}
		input, factPred = inter, nil
	}

	out, res, err := e.runAggJob(ctx, "clydesdale-staged-agg-"+sh.Name, sh, inter)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %s staged aggregation: %w", sh.Name, err)
	}
	counters.Merge(res.Counters)
	job := &mr.JobResult{JobID: "staged", Counters: counters, Duration: time.Since(start)}
	return finish(sh, out, &Report{Job: job, Staged: true}, start)
}
