package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"clydesdale/internal/cluster"
	"clydesdale/internal/core"
	"clydesdale/internal/hive"
	"clydesdale/internal/ssb"
)

// QueryRow is one row of Figure 7/8: the three systems' times on one query.
type QueryRow struct {
	Query           string
	Clydesdale      time.Duration
	HiveRepartition time.Duration
	HiveMapjoin     time.Duration
	// MapjoinOOM marks the mapjoin plan as DNF (out of memory), the paper's
	// missing bars on cluster A.
	MapjoinOOM bool
}

// SpeedupRepartition is Hive-repartition time / Clydesdale time.
func (r QueryRow) SpeedupRepartition() float64 {
	return float64(r.HiveRepartition) / float64(r.Clydesdale)
}

// SpeedupMapjoin is Hive-mapjoin time / Clydesdale time (0 when DNF).
func (r QueryRow) SpeedupMapjoin() float64 {
	if r.MapjoinOOM {
		return 0
	}
	return float64(r.HiveMapjoin) / float64(r.Clydesdale)
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
// SSB queries on Clydesdale, Hive-repartition and Hive-mapjoin.
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

		t, err := h.medianTime(func() (time.Duration, error) {
			_, rep, err := cly.Run(context.Background(), q)
			if err != nil {
				return 0, err
			}
			return rep.Total, nil
		})
		if err != nil {
			return nil, fmt.Errorf("bench: clydesdale %s: %w", q.Name, err)
		}
		row.Clydesdale = t

		t, err = h.medianTime(func() (time.Duration, error) {
			_, rep, err := rep.Execute(context.Background(), q)
			if err != nil {
				return 0, err
			}
			return rep.Total, nil
		})
		if err != nil {
			return nil, fmt.Errorf("bench: hive-repartition %s: %w", q.Name, err)
		}
		row.HiveRepartition = t

		t, err = h.medianTime(func() (time.Duration, error) {
			_, rep, err := mj.Execute(context.Background(), q)
			if err != nil {
				return 0, err
			}
			return rep.Total, nil
		})
		if err != nil {
			if errors.Is(err, cluster.ErrOutOfMemory) {
				row.MapjoinOOM = true
			} else {
				return nil, fmt.Errorf("bench: hive-mapjoin %s: %w", q.Name, err)
			}
		} else {
			row.HiveMapjoin = t
		}
		out.Rows = append(out.Rows, row)
	}
	if w != nil {
		printFigure(w, out)
	}
	return out, nil
}

func printFigure(w io.Writer, f *FigureResult) {
	fmt.Fprintf(w, "\n%s: SSB on cluster %s — execution time (wall, includes modeled cluster costs)\n", f.Figure, f.Cluster)
	fmt.Fprintf(w, "%-6s %14s %18s %14s %10s %10s\n",
		"Query", "Clydesdale", "Hive-repartition", "Hive-mapjoin", "spd(rep)", "spd(mapj)")
	for _, r := range f.Rows {
		mapjoin := fmt.Sprintf("%14s", r.HiveMapjoin.Round(time.Millisecond))
		spdM := fmt.Sprintf("%9.1fx", r.SpeedupMapjoin())
		if r.MapjoinOOM {
			mapjoin = fmt.Sprintf("%14s", "DNF(OOM)")
			spdM = fmt.Sprintf("%10s", "—")
		}
		fmt.Fprintf(w, "%-6s %14s %18s %s %9.1fx %s\n",
			r.Query,
			r.Clydesdale.Round(time.Millisecond),
			r.HiveRepartition.Round(time.Millisecond),
			mapjoin,
			r.SpeedupRepartition(),
			spdM)
	}
	fmt.Fprintf(w, "Average speedup over Hive's better plan: %.1fx\n", f.AverageSpeedup())
}

// AblationRow is one Figure 9 row: a query's slowdown when one feature is
// disabled.
type AblationRow struct {
	Query    string
	Baseline time.Duration
	// Slowdowns relative to all-features-on.
	NoBlockIteration    float64
	NoColumnar          float64
	NoMultiThreading    float64
	NoInMapperCombining float64
}

// AblationResult is Figure 9.
type AblationResult struct {
	Rows []AblationRow
}

// Average returns the mean slowdown for each disabled feature.
func (a *AblationResult) Average() (noBlock, noColumnar, noMT float64) {
	if len(a.Rows) == 0 {
		return
	}
	for _, r := range a.Rows {
		noBlock += r.NoBlockIteration
		noColumnar += r.NoColumnar
		noMT += r.NoMultiThreading
	}
	n := float64(len(a.Rows))
	return noBlock / n, noColumnar / n, noMT / n
}

// AverageNoCombining returns the mean slowdown with in-mapper combining
// disabled (map tasks emit one record per joined row and leave all map-side
// aggregation to the combiner).
func (a *AblationResult) AverageNoCombining() float64 {
	if len(a.Rows) == 0 {
		return 0
	}
	var sum float64
	for _, r := range a.Rows {
		sum += r.NoInMapperCombining
	}
	return sum / float64(len(a.Rows))
}

// RunFigure9 runs the ablation on cluster A: each feature disabled in turn.
// The memory budget is relaxed (see SetupClusterRelaxedMemory) so the
// single-threaded variant's per-task hash-table copies fit, as they did at
// the paper's scale.
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
		base, err := h.timeQuery(full, q)
		if err != nil {
			return nil, err
		}
		row.Baseline = base
		nb, err := h.timeQuery(noBlock, q)
		if err != nil {
			return nil, err
		}
		nc, err := h.timeQuery(noCol, q)
		if err != nil {
			return nil, err
		}
		nm, err := h.timeQuery(noMT, q)
		if err != nil {
			return nil, err
		}
		ni, err := h.timeQuery(noIMC, q)
		if err != nil {
			return nil, err
		}
		row.NoBlockIteration = float64(nb) / float64(base)
		row.NoColumnar = float64(nc) / float64(base)
		row.NoMultiThreading = float64(nm) / float64(base)
		row.NoInMapperCombining = float64(ni) / float64(base)
		out.Rows = append(out.Rows, row)
	}
	if w != nil {
		printAblation(w, out)
	}
	return out, nil
}

func (h *Harness) timeQuery(e *core.Engine, q *core.Query) (time.Duration, error) {
	return h.medianTime(func() (time.Duration, error) {
		_, rep, err := e.Run(context.Background(), q)
		if err != nil {
			return 0, err
		}
		return rep.Total, nil
	})
}

// medianTime runs fn Repeats times and returns the median duration (the
// paper reports the average of three runs; the median is more robust to
// the simulator's scheduling jitter).
func (h *Harness) medianTime(fn func() (time.Duration, error)) (time.Duration, error) {
	n := h.cfg.Repeats
	if n < 1 {
		n = 1
	}
	times := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t, err := fn()
		if err != nil {
			return 0, err
		}
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], nil
}

func printAblation(w io.Writer, a *AblationResult) {
	fmt.Fprintf(w, "\nFigure 9: impact of disabling individual techniques (slowdown vs full Clydesdale, cluster A)\n")
	fmt.Fprintf(w, "%-6s %12s %12s %12s %12s %12s\n", "Query", "baseline", "-blockiter", "-columnar", "-multithread", "-combining")
	for _, r := range a.Rows {
		fmt.Fprintf(w, "%-6s %12s %11.2fx %11.2fx %11.2fx %11.2fx\n",
			r.Query, r.Baseline.Round(time.Millisecond),
			r.NoBlockIteration, r.NoColumnar, r.NoMultiThreading, r.NoInMapperCombining)
	}
	nb, nc, nm := a.Average()
	fmt.Fprintf(w, "%-6s %12s %11.2fx %11.2fx %11.2fx %11.2fx\n", "avg", "", nb, nc, nm, a.AverageNoCombining())
}
