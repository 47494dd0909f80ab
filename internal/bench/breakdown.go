package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"clydesdale/internal/cluster"
	"clydesdale/internal/core"
	"clydesdale/internal/hive"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/ssb"
)

// BreakdownResult reproduces the §6.3 anatomy of one query (the paper uses
// Q2.1 on cluster A): where Clydesdale's single job spends its time versus
// the baseline's staged plans. Each total is the Cost of one warm run; the
// counters beside it are that run's, and a duration read off a counter or a
// stage is host time.
type BreakdownResult struct {
	Query   string
	Cluster string

	// Clydesdale.
	ClyTotal     Cost
	ClyMapTasks  int64
	ClyHashBuild time.Duration // host, summed across nodes (CLYDESDALE_HASH_BUILD_NANOS)
	// ClyHashBuild is the warm run's build step: each node checks its local
	// copy and takes the table the engine built once. ClyColdBuild is what
	// building the query's tables costs from cold, one BuildDimHashTable
	// each from one node's copy, timed apart on the host.
	ClyColdBuild time.Duration
	ClyProbe     time.Duration // host, summed across tasks (CLYDESDALE_PROBE_NANOS)
	ClyBytesRead int64
	// ClyJob is the Clydesdale job's result (task reports with per-phase
	// durations); ClyProfile the correlated profile assembled from the
	// run's trace (what `benchssb -profile-json` serializes and the
	// breakdown's timeline draws).
	ClyJob     *mr.JobResult
	ClyProfile *obs.Profile

	// Hive mapjoin.
	MapjoinTotal     Cost
	MapjoinOOM       bool
	MapjoinStages    []hive.StageReport
	MapjoinHashLoads int64
	MapjoinLoadTime  time.Duration // host, deserialization across tasks
	MapjoinBuildTime time.Duration // host, driver-side builds
	MapjoinInterRows int64

	// Hive repartition.
	RepartitionTotal  Cost
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

	// Trace the Clydesdale run so the breakdown draws its profile's
	// timeline: a fresh sink for each run, detached after it, so the trace
	// holds exactly the measured job.
	cly := env.Clydesdale(0)
	var sink *obs.MemorySink
	var crep *core.Report
	out.ClyTotal, err = env.warmRun(func() error {
		sink = obs.NewMemorySink()
		env.MR.SetTracer(obs.NewTracer(sink))
		defer env.MR.SetTracer(nil)
		before := env.FS.Metrics().Snapshot()
		_, r, err := cly.Run(context.Background(), q)
		after := env.FS.Metrics().Snapshot()
		crep = r
		out.ClyBytesRead = (after.LocalBytesRead + after.RemoteBytesRead) - (before.LocalBytesRead + before.RemoteBytesRead)
		return err
	})
	if err != nil {
		return nil, err
	}
	out.ClyJob = crep.Job
	if p, err := obs.BuildProfile(sink.Spans(), obs.ProfileOptions{
		Counters: crep.Job.Counters.Snapshot(),
	}); err == nil {
		out.ClyProfile = p
	}
	out.ClyMapTasks = crep.Job.Counters.Get(mr.CtrMapTasks)
	out.ClyHashBuild = time.Duration(crep.Job.Counters.Get(core.CtrHashBuildNanos))
	out.ClyProbe = time.Duration(crep.Job.Counters.Get(core.CtrProbeNanos))
	if out.ClyColdBuild, err = coldBuild(env, q); err != nil {
		return nil, err
	}

	mj, mrep := env.Hive(hive.MapJoin), (*hive.Report)(nil)
	out.MapjoinTotal, err = env.warmRun(func() (err error) {
		_, mrep, err = mj.Execute(context.Background(), q)
		return err
	})
	if errors.Is(err, cluster.ErrOutOfMemory) {
		out.MapjoinOOM = true
	} else if err != nil {
		return nil, err
	} else {
		out.MapjoinStages = mrep.Stages
		out.MapjoinHashLoads = mrep.Counters.Get(hive.CtrHashLoads)
		out.MapjoinLoadTime = time.Duration(mrep.Counters.Get(hive.CtrHashLoadNanos))
		out.MapjoinBuildTime = time.Duration(mrep.Counters.Get(hive.CtrDriverBuildNanos))
		out.MapjoinInterRows = mrep.Counters.Get(hive.CtrIntermediateRows)
	}

	rep, rrep := env.Hive(hive.Repartition), (*hive.Report)(nil)
	if out.RepartitionTotal, err = env.warmRun(func() (err error) {
		_, rrep, err = rep.Execute(context.Background(), q)
		return err
	}); err != nil {
		return nil, err
	}
	out.RepartitionStages = rrep.Stages

	if w != nil {
		printBreakdown(w, out)
	}
	return out, nil
}

// coldBuild times one BuildDimHashTable of each of the query's dimensions
// from one node's local copy, summed.
func coldBuild(env *Env, q *core.Query) (time.Duration, error) {
	cat := env.Layout.Catalog()
	node := env.Cluster.Nodes()[0]
	var total time.Duration
	for i := range q.Dims {
		dir, err := cat.DimDir(q.Dims[i].Table)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if _, err := core.BuildDimHashTable(env.FS, node, dir, &q.Dims[i]); err != nil {
			return 0, err
		}
		total += time.Since(start)
	}
	return total, nil
}

func printBreakdown(w io.Writer, b *BreakdownResult) {
	fmt.Fprintf(w, "\n§6.3 breakdown: %s on cluster %s (totals: modeled node-seconds of a warm run, host CPU beside)\n", b.Query, b.Cluster)
	fmt.Fprintf(w, "Clydesdale: total %s, host CPU %s — one MapReduce job, %d map tasks\n",
		nodeSeconds(b.ClyTotal.NodeSeconds), hostMS(b.ClyTotal.HostCPU), b.ClyMapTasks)
	fmt.Fprintf(w, "  hash-table build step (sum over nodes; warm: copies checked, tables shared): %s host\n", hostMS(b.ClyHashBuild))
	fmt.Fprintf(w, "  cold build of the query's tables on one node (BuildDimHashTable):           %s host\n", hostMS(b.ClyColdBuild))
	fmt.Fprintf(w, "  probe phase (sum over tasks):      %s host\n", hostMS(b.ClyProbe))
	fmt.Fprintf(w, "  HDFS bytes read:                   %d\n", b.ClyBytesRead)
	if b.ClyProfile != nil {
		fmt.Fprintf(w, "  profile of the measured run, in host wall time:\n")
		b.ClyProfile.WriteTimeline(w)
	}

	if b.MapjoinOOM {
		fmt.Fprintf(w, "Hive mapjoin: DNF (out of memory)\n")
	} else {
		fmt.Fprintf(w, "Hive mapjoin: total %s, host CPU %s — %d stages\n",
			nodeSeconds(b.MapjoinTotal.NodeSeconds), hostMS(b.MapjoinTotal.HostCPU), len(b.MapjoinStages))
		for _, st := range b.MapjoinStages {
			fmt.Fprintf(w, "  %-22s %10s host  (%d map tasks)\n", st.Name,
				hostMS(st.Duration), st.Job.Counters.Get(mr.CtrMapTasks))
		}
		fmt.Fprintf(w, "  hash-table loads across tasks: %d (vs Clydesdale's %d node builds)\n",
			b.MapjoinHashLoads, b.ClyMapTasks)
		fmt.Fprintf(w, "  deserialization in tasks: %s host; driver builds: %s host\n",
			hostMS(b.MapjoinLoadTime), hostMS(b.MapjoinBuildTime))
		fmt.Fprintf(w, "  intermediate rows through HDFS: %d\n", b.MapjoinInterRows)
		// §6.4 subtracts hash dissemination from this gap; the load and
		// build times above are host clocks, so that waits for a
		// node-second meter of them.
		fmt.Fprintf(w, "  node-seconds over Clydesdale's: %.1fx\n",
			float64(b.MapjoinTotal.NodeSeconds)/float64(b.ClyTotal.NodeSeconds))
	}

	fmt.Fprintf(w, "Hive repartition: total %s, host CPU %s — %d stages\n",
		nodeSeconds(b.RepartitionTotal.NodeSeconds), hostMS(b.RepartitionTotal.HostCPU), len(b.RepartitionStages))
	for _, st := range b.RepartitionStages {
		fmt.Fprintf(w, "  %-22s %10s host  (shuffle %d bytes)\n", st.Name,
			hostMS(st.Duration), st.Job.Counters.Get(mr.CtrShuffleBytes))
	}
}
