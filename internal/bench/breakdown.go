package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"clydesdale/internal/core"
	"clydesdale/internal/hive"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/ssb"
)

// BreakdownResult reproduces the §6.3 anatomy of one query (the paper uses
// Q2.1 on cluster A): where Clydesdale's single job spends its time versus
// the baseline's staged plans, plus the §6.4 observation that subtracting
// hash-table dissemination still leaves a large gap.
type BreakdownResult struct {
	Query   string
	Cluster string

	// Clydesdale.
	ClyTotal     time.Duration
	ClyMapTasks  int64
	ClyHashBuild time.Duration // summed across nodes, measured from spans
	ClyProbe     time.Duration // measured from spans
	ClyBytesRead int64
	// ClyJob is the Clydesdale job's result (task reports with per-phase
	// durations); ClySpans the trace its run emitted; ClyPhases the
	// per-phase totals aggregated from that trace; ClyProfile the full
	// correlated profile assembled from the trace (what `benchssb
	// -profile-json` serializes).
	ClyJob     *mr.JobResult
	ClySpans   []obs.Span
	ClyPhases  map[string]time.Duration
	ClyProfile *obs.Profile

	// Hive mapjoin.
	MapjoinTotal     time.Duration
	MapjoinOOM       bool
	MapjoinStages    []hive.StageReport
	MapjoinHashLoads int64
	MapjoinLoadTime  time.Duration // total deserialization time across tasks
	MapjoinBuildTime time.Duration // driver-side builds
	MapjoinInterRows int64

	// Hive repartition.
	RepartitionTotal  time.Duration
	RepartitionStages []hive.StageReport
}

// RunBreakdown executes the query on all three systems on cluster A and
// reports the anatomy.
func (h *Harness) RunBreakdown(queryName string, w io.Writer) (*BreakdownResult, error) {
	q, err := ssb.QueryByName(queryName)
	if err != nil {
		return nil, err
	}
	env, err := h.SetupCluster("A")
	if err != nil {
		return nil, err
	}
	out := &BreakdownResult{Query: q.Name, Cluster: "A"}

	// Trace the Clydesdale run so the breakdown reports measured sub-phase
	// times (spans) instead of recomputed estimates. Detached before the
	// Hive runs so the trace holds exactly one job.
	sink := obs.NewMemorySink()
	env.MR.SetTracer(obs.NewTracer(sink))

	before := env.FS.Metrics().Snapshot()
	_, crep, err := env.Clydesdale(0).Run(context.Background(), q)
	if err != nil {
		return nil, err
	}
	after := env.FS.Metrics().Snapshot()
	env.MR.SetTracer(nil)
	out.ClyTotal = crep.Total
	out.ClyJob = crep.Job
	out.ClySpans = sink.Spans()
	out.ClyPhases = obs.AggregatePhases(out.ClySpans, crep.Job.JobID)
	if p, err := obs.BuildProfile(out.ClySpans, obs.ProfileOptions{
		Counters: crep.Job.Counters.Snapshot(),
	}); err == nil {
		out.ClyProfile = p
	}
	out.ClyMapTasks = crep.Job.Counters.Get(mr.CtrMapTasks)
	out.ClyHashBuild = out.ClyPhases[obs.PhaseHashBuild]
	out.ClyProbe = out.ClyPhases[obs.PhaseProbe]
	if out.ClyHashBuild == 0 {
		out.ClyHashBuild = time.Duration(crep.Job.Counters.Get(core.CtrHashBuildNanos))
	}
	if out.ClyProbe == 0 {
		out.ClyProbe = time.Duration(crep.Job.Counters.Get(core.CtrProbeNanos))
	}
	out.ClyBytesRead = (after.LocalBytesRead + after.RemoteBytesRead) - (before.LocalBytesRead + before.RemoteBytesRead)

	if _, mrep, err := env.Hive(hive.MapJoin).Execute(context.Background(), q); err != nil {
		out.MapjoinOOM = true
	} else {
		out.MapjoinTotal = mrep.Total
		out.MapjoinStages = mrep.Stages
		out.MapjoinHashLoads = mrep.Counters.Get(hive.CtrHashLoads)
		out.MapjoinLoadTime = time.Duration(mrep.Counters.Get(hive.CtrHashLoadNanos))
		out.MapjoinBuildTime = time.Duration(mrep.Counters.Get(hive.CtrDriverBuildNanos))
		out.MapjoinInterRows = mrep.Counters.Get(hive.CtrIntermediateRows)
	}

	_, rrep, err := env.Hive(hive.Repartition).Execute(context.Background(), q)
	if err != nil {
		return nil, err
	}
	out.RepartitionTotal = rrep.Total
	out.RepartitionStages = rrep.Stages

	if w != nil {
		printBreakdown(w, out)
	}
	return out, nil
}

func printBreakdown(w io.Writer, b *BreakdownResult) {
	fmt.Fprintf(w, "\n§6.3 breakdown: %s on cluster %s\n", b.Query, b.Cluster)
	fmt.Fprintf(w, "Clydesdale: total %v — one MapReduce job, %d map tasks\n",
		b.ClyTotal.Round(time.Millisecond), b.ClyMapTasks)
	fmt.Fprintf(w, "  hash-table build (sum over nodes): %v\n", b.ClyHashBuild.Round(time.Millisecond))
	fmt.Fprintf(w, "  probe phase (sum over tasks):      %v\n", b.ClyProbe.Round(time.Millisecond))
	fmt.Fprintf(w, "  HDFS bytes read:                   %d\n", b.ClyBytesRead)
	if len(b.ClyPhases) > 0 {
		fmt.Fprintf(w, "  measured phase totals (from trace):\n")
		obs.WritePhaseSummary(w, b.ClyPhases)
	}
	if len(b.ClySpans) > 0 {
		obs.RenderTimeline(w, b.ClySpans, obs.TimelineOptions{Job: b.ClyJob.JobID})
	}

	if b.MapjoinOOM {
		fmt.Fprintf(w, "Hive mapjoin: DNF (out of memory)\n")
	} else {
		fmt.Fprintf(w, "Hive mapjoin: total %v — %d stages\n", b.MapjoinTotal.Round(time.Millisecond), len(b.MapjoinStages))
		for _, st := range b.MapjoinStages {
			fmt.Fprintf(w, "  %-22s %10v  (%d map tasks)\n", st.Name,
				st.Duration.Round(time.Millisecond), st.Job.Counters.Get(mr.CtrMapTasks))
		}
		fmt.Fprintf(w, "  hash-table loads across tasks: %d (vs Clydesdale's %d node builds)\n",
			b.MapjoinHashLoads, b.ClyMapTasks)
		fmt.Fprintf(w, "  deserialization time in tasks: %v; driver builds: %v\n",
			b.MapjoinLoadTime.Round(time.Millisecond), b.MapjoinBuildTime.Round(time.Millisecond))
		fmt.Fprintf(w, "  intermediate rows through HDFS: %d\n", b.MapjoinInterRows)
		adj := b.MapjoinTotal - b.MapjoinLoadTime - b.MapjoinBuildTime
		fmt.Fprintf(w, "  §6.4: even after subtracting dissemination+loads (%v), Clydesdale is %.1fx faster\n",
			adj.Round(time.Millisecond), float64(adj)/float64(b.ClyTotal))
	}

	fmt.Fprintf(w, "Hive repartition: total %v — %d stages\n",
		b.RepartitionTotal.Round(time.Millisecond), len(b.RepartitionStages))
	for _, st := range b.RepartitionStages {
		fmt.Fprintf(w, "  %-22s %10v  (shuffle %d bytes)\n", st.Name,
			st.Duration.Round(time.Millisecond), st.Job.Counters.Get(mr.CtrShuffleBytes))
	}
}
