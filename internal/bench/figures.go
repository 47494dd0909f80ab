package bench

import (
	"context"
	"errors"
	"fmt"
	"io"

	"clydesdale/internal/cluster"
	"clydesdale/internal/core"
	"clydesdale/internal/hive"
	"clydesdale/internal/ssb"
)

// QueryRow is one row of Figure 7/8: the three systems' costs on one query.
type QueryRow struct {
	Query           string
	Clydesdale      Cost
	HiveRepartition Cost
	HiveMapjoin     Cost
	// MapjoinOOM marks the mapjoin plan as DNF (out of memory), the paper's
	// missing bars on cluster A.
	MapjoinOOM bool
}

// SpeedupRepartition is Hive-repartition node-seconds / Clydesdale's.
func (r QueryRow) SpeedupRepartition() float64 {
	return float64(r.HiveRepartition.NodeSeconds) / float64(r.Clydesdale.NodeSeconds)
}

// SpeedupMapjoin is Hive-mapjoin node-seconds / Clydesdale's (0 when DNF).
func (r QueryRow) SpeedupMapjoin() float64 {
	if r.MapjoinOOM {
		return 0
	}
	return float64(r.HiveMapjoin.NodeSeconds) / float64(r.Clydesdale.NodeSeconds)
}

// FigureResult is a full Figure 7 or 8.
type FigureResult struct {
	Figure  string
	Cluster string
	Rows    []QueryRow
}

// AverageSpeedup computes the mean of the best-plan speedups (the paper
// averages Clydesdale's advantage over Hive's better plan per query).
func (f *FigureResult) AverageSpeedup() float64 {
	if len(f.Rows) == 0 {
		return 0
	}
	var sum float64
	for _, r := range f.Rows {
		s := r.SpeedupRepartition()
		if !r.MapjoinOOM && r.SpeedupMapjoin() < s {
			s = r.SpeedupMapjoin()
		}
		sum += s
	}
	return sum / float64(len(f.Rows))
}

// RunFigure runs Figure 7 (cluster "A") or Figure 8 (cluster "B"): all 13
// SSB queries on Clydesdale, Hive-repartition and Hive-mapjoin, each cell
// one warm run.
func (h *Harness) RunFigure(profile string, w io.Writer) (*FigureResult, error) {
	env, err := h.SetupCluster(profile)
	if err != nil {
		return nil, err
	}
	fig := "Figure 7"
	if profile == "B" {
		fig = "Figure 8"
	}
	out := &FigureResult{Figure: fig, Cluster: profile}

	cly := env.Clydesdale(0)
	rep := env.Hive(hive.Repartition)
	mj := env.Hive(hive.MapJoin)

	for _, q := range ssb.Queries() {
		h.logf(w, "# %s on cluster %s\n", q.Name, profile)
		row := QueryRow{Query: q.Name}
		if row.Clydesdale, err = env.warmRun(clydesdaleRun(cly, q)); err != nil {
			return nil, fmt.Errorf("bench: clydesdale %s: %w", q.Name, err)
		}
		if row.HiveRepartition, err = env.warmRun(hiveRun(rep, q)); err != nil {
			return nil, fmt.Errorf("bench: hive-repartition %s: %w", q.Name, err)
		}
		row.HiveMapjoin, err = env.warmRun(hiveRun(mj, q))
		if errors.Is(err, cluster.ErrOutOfMemory) {
			row.MapjoinOOM = true
		} else if err != nil {
			return nil, fmt.Errorf("bench: hive-mapjoin %s: %w", q.Name, err)
		}
		out.Rows = append(out.Rows, row)
	}
	if w != nil {
		printFigure(w, out)
	}
	return out, nil
}

func clydesdaleRun(e *core.Engine, q *core.Query) func() error {
	return func() error { _, _, err := e.Run(context.Background(), q); return err }
}

func hiveRun(e *hive.Engine, q *core.Query) func() error {
	return func() error { _, _, err := e.Execute(context.Background(), q); return err }
}

func printFigure(w io.Writer, f *FigureResult) {
	fmt.Fprintf(w, "\n%s: SSB on cluster %s — modeled node-seconds of a warm run; host CPU beside, never added\n", f.Figure, f.Cluster)
	fmt.Fprintf(w, "%-6s %14s %18s %14s %10s %10s   %s\n",
		"Query", "Clydesdale", "Hive-repartition", "Hive-mapjoin", "spd(rep)", "spd(mapj)", "host CPU cly/rep/mapj")
	for _, r := range f.Rows {
		mapjoin, spdM, cpuM := nodeSeconds(r.HiveMapjoin.NodeSeconds), fmt.Sprintf("%.1fx", r.SpeedupMapjoin()), hostMS(r.HiveMapjoin.HostCPU)
		if r.MapjoinOOM {
			mapjoin, spdM, cpuM = "DNF(OOM)", "—", "—"
		}
		fmt.Fprintf(w, "%-6s %14s %18s %14s %9.1fx %10s   %s / %s / %s\n",
			r.Query, nodeSeconds(r.Clydesdale.NodeSeconds), nodeSeconds(r.HiveRepartition.NodeSeconds), mapjoin,
			r.SpeedupRepartition(), spdM, hostMS(r.Clydesdale.HostCPU), hostMS(r.HiveRepartition.HostCPU), cpuM)
	}
	fmt.Fprintf(w, "Average speedup over Hive's better plan: %.1fx (node-seconds)\n", f.AverageSpeedup())
}

// AblationRow is one Figure 9 row: a query's cost with every technique on
// and with each one disabled in turn.
type AblationRow struct {
	Query               string
	Baseline            Cost
	NoBlockIteration    Cost
	NoColumnar          Cost
	NoMultiThreading    Cost
	NoInMapperCombining Cost
}

// Slowdown is c's node-seconds over the baseline's.
func (r AblationRow) Slowdown(c Cost) float64 {
	return float64(c.NodeSeconds) / float64(r.Baseline.NodeSeconds)
}

// AblationResult is Figure 9.
type AblationResult struct {
	Rows []AblationRow
}

// Average returns the mean slowdown for each disabled feature (in-mapper
// combining disabled: map tasks emit one record per joined row and leave
// all map-side aggregation to the combiner).
func (a *AblationResult) Average() (noBlock, noColumnar, noMT, noCombining float64) {
	if len(a.Rows) == 0 {
		return
	}
	for _, r := range a.Rows {
		noBlock += r.Slowdown(r.NoBlockIteration)
		noColumnar += r.Slowdown(r.NoColumnar)
		noMT += r.Slowdown(r.NoMultiThreading)
		noCombining += r.Slowdown(r.NoInMapperCombining)
	}
	n := float64(len(a.Rows))
	return noBlock / n, noColumnar / n, noMT / n, noCombining / n
}

// RunFigure9 runs the ablation on cluster A: each feature disabled in turn,
// each cell one warm run. The memory budget is relaxed (see
// SetupClusterRelaxedMemory) so the single-threaded variant's per-task
// hash-table copies fit, as they did at the paper's scale.
func (h *Harness) RunFigure9(w io.Writer) (*AblationResult, error) {
	env, err := h.SetupClusterRelaxedMemory("A")
	if err != nil {
		return nil, err
	}
	full := env.Clydesdale(0)
	noBlock := env.Clydesdale(core.NoBlockIteration)
	noCol := env.Clydesdale(core.NoColumnarStorage)
	noMT := env.Clydesdale(core.NoMultiThreading)
	noIMC := env.Clydesdale(core.NoInMapperCombining)

	out := &AblationResult{}
	for _, q := range ssb.Queries() {
		h.logf(w, "# ablation %s\n", q.Name)
		row := AblationRow{Query: q.Name}
		for _, v := range []struct {
			e    *core.Engine
			cost *Cost
		}{{full, &row.Baseline}, {noBlock, &row.NoBlockIteration}, {noCol, &row.NoColumnar},
			{noMT, &row.NoMultiThreading}, {noIMC, &row.NoInMapperCombining}} {
			if *v.cost, err = env.warmRun(clydesdaleRun(v.e, q)); err != nil {
				return nil, fmt.Errorf("bench: ablation %s: %w", q.Name, err)
			}
		}
		out.Rows = append(out.Rows, row)
	}
	if w != nil {
		printAblation(w, out)
	}
	return out, nil
}

func printAblation(w io.Writer, a *AblationResult) {
	fmt.Fprintf(w, "\nFigure 9: impact of disabling individual techniques (slowdown in modeled node-seconds vs full Clydesdale, cluster A)\n")
	fmt.Fprintf(w, "%-6s %14s %12s %12s %12s %12s   %s\n", "Query", "baseline", "-blockiter", "-columnar", "-multithread", "-combining",
		"host CPU: baseline, then each over it")
	for _, r := range a.Rows {
		cpu := func(c Cost) float64 { return float64(c.HostCPU) / float64(r.Baseline.HostCPU) }
		fmt.Fprintf(w, "%-6s %14s %11.2fx %11.2fx %11.2fx %11.2fx   %s %.2fx %.2fx %.2fx %.2fx\n",
			r.Query, nodeSeconds(r.Baseline.NodeSeconds),
			r.Slowdown(r.NoBlockIteration), r.Slowdown(r.NoColumnar), r.Slowdown(r.NoMultiThreading), r.Slowdown(r.NoInMapperCombining),
			hostMS(r.Baseline.HostCPU), cpu(r.NoBlockIteration), cpu(r.NoColumnar), cpu(r.NoMultiThreading), cpu(r.NoInMapperCombining))
	}
	nb, nc, nm, ni := a.Average()
	fmt.Fprintf(w, "%-6s %14s %11.2fx %11.2fx %11.2fx %11.2fx\n", "avg", "", nb, nc, nm, ni)
}
