package chaos_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"clydesdale/internal/chaos"
	"clydesdale/internal/cluster"
	"clydesdale/internal/core"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/hive"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/records"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/ssb"
)

type env struct {
	cluster *cluster.Cluster
	fs      *hdfs.FileSystem
	mr      *mr.Engine
	gen     *ssb.Generator
	lay     *ssb.Layout
	reg     *obs.Registry
}

func newEnv(t *testing.T, workers int, sf float64) *env {
	t.Helper()
	return newEnvConfig(t, cluster.Testing(workers), sf)
}

func newEnvConfig(t *testing.T, cfg cluster.Config, sf float64) *env {
	t.Helper()
	c := cluster.New(cfg)
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 23})
	reg := obs.NewRegistry()
	fs.Observe(nil, reg)
	gen := ssb.NewGenerator(sf, 42)
	lay, err := ssb.Load(fs, gen, "/ssb", ssb.LoadOptions{SkipRC: true, PartitionRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	return &env{
		cluster: c,
		fs:      fs,
		mr:      mr.NewEngine(c, fs, mr.Options{Metrics: reg}),
		gen:     gen,
		lay:     lay,
		reg:     reg,
	}
}

// dimPartFile returns the single data file of a dimension's row table.
func (e *env) dimPartFile(t *testing.T, table string) string {
	t.Helper()
	dir, err := e.lay.Catalog().DimDir(table)
	if err != nil {
		t.Fatal(err)
	}
	path := dir + "/part-00000"
	if !e.fs.Exists(path) {
		t.Fatalf("dimension data file %s does not exist", path)
	}
	return path
}

// TestChaosOracleAllQueries is the headline recovery test: every SSB query,
// under each fault plan from the issue (mid-job node kill, 8x slow-disk
// straggler, 1% transient read errors, one corrupted replica), must return
// exactly the healthy answer. The recovery machinery — replica failover,
// CRC verification, re-replication, dead-node requeue, map re-execution —
// may add work but must never change results or silently drop rows.
func TestChaosOracleAllQueries(t *testing.T) {
	cases := []struct {
		name string
		plan func(e *env) chaos.Plan
		opts core.Options
		// check runs plan-specific counter assertions after all queries.
		check func(t *testing.T, e *env, ctl *chaos.Controller)
	}{
		{
			name: "node-kill-mid-job",
			plan: func(e *env) chaos.Plan {
				return chaos.Plan{
					Name: "node-kill-mid-job",
					Seed: 1,
					// node-1 dies partway through the first query's scans.
					Kills: []chaos.NodeKill{{Node: "node-1", AfterBlockReads: 20}},
				}
			},
			check: func(t *testing.T, e *env, ctl *chaos.Controller) {
				if e.cluster.Node("node-1").IsAlive() {
					t.Error("node-1 should be dead")
				}
				if got := ctl.FaultsInjected(); got < 1 {
					t.Errorf("FaultsInjected = %d, want >= 1", got)
				}
				if got := e.fs.Metrics().Snapshot().Failovers; got == 0 {
					t.Error("expected nonzero hdfs failovers after mid-read kill")
				}
				if got := e.reg.Snapshot().Counters["hdfs.failovers"]; got == 0 {
					t.Error("hdfs.failovers obs counter not incremented")
				}
				if got := e.reg.Snapshot().Counters["chaos.faults_injected"]; got == 0 {
					t.Error("chaos.faults_injected obs counter not incremented")
				}
			},
		},
		{
			name: "slow-disk-straggler",
			plan: func(e *env) chaos.Plan {
				return chaos.Plan{
					Name:       "slow-disk-straggler",
					Seed:       2,
					Stragglers: []chaos.SlowDisk{{Node: "node-2", Factor: 8}},
				}
			},
			// Speculation is the mitigation for stragglers; results must be
			// exact despite duplicate attempts.
			opts: core.Options{Speculative: true},
			check: func(t *testing.T, e *env, ctl *chaos.Controller) {
				if got := ctl.FaultsInjected(); got != 1 {
					t.Errorf("FaultsInjected = %d, want 1 (the standing straggler)", got)
				}
			},
		},
		{
			name: "transient-read-errors",
			plan: func(e *env) chaos.Plan {
				return chaos.Plan{
					Name:      "transient-read-errors",
					Seed:      3,
					Transient: []chaos.TransientReads{{Prob: 0.01}}, // all nodes
				}
			},
			check: func(t *testing.T, e *env, ctl *chaos.Controller) {
				if got := ctl.FaultsInjected(); got == 0 {
					t.Error("no transient errors injected across 13 queries; raise Prob")
				}
				// Every injected error on a replicated block forces a failover.
				if got := e.fs.Metrics().Snapshot().Failovers; got == 0 {
					t.Error("expected nonzero hdfs failovers under transient errors")
				}
			},
		},
		{
			name: "corrupted-replica",
			plan: func(e *env) chaos.Plan {
				// The date dimension is joined by all 13 queries, so its
				// corrupted replica is guaranteed to be scanned.
				return chaos.Plan{
					Name:        "corrupted-replica",
					Seed:        4,
					Corruptions: []chaos.Corruption{{Path: e.dimPartFile(t, "date"), Block: 0}},
				}
			},
			check: func(t *testing.T, e *env, ctl *chaos.Controller) {
				snap := e.fs.Metrics().Snapshot()
				if snap.CRCFailures == 0 {
					t.Error("corrupted replica was never detected by CRC verification")
				}
				if snap.Failovers == 0 {
					t.Error("CRC failure should have failed over to a pristine replica")
				}
				if got := e.reg.Snapshot().Counters["hdfs.crc_failures"]; got == 0 {
					t.Error("hdfs.crc_failures obs counter not incremented")
				}
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, 4, 0.002)
			ctl := chaos.New(e.cluster, e.fs, tc.plan(e), e.reg)
			if err := ctl.Start(); err != nil {
				t.Fatal(err)
			}
			defer ctl.Stop()

			eng := core.New(e.mr, e.lay.Catalog(), tc.opts)
			for _, q := range ssb.Queries() {
				rs, _, err := eng.Run(context.Background(), q)
				if err != nil {
					// None of these plans lose data (replication 3, one
					// fault), so any error is a recovery bug.
					t.Fatalf("%s: %v", q.Name, err)
				}
				want, err := refexec.Run(e.gen, q)
				if err != nil {
					t.Fatalf("%s ref: %v", q.Name, err)
				}
				if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
					t.Fatalf("%s: silently wrong under faults: %s\ngot:\n%svs reference:\n%s",
						q.Name, why, rs, want)
				}
			}
			tc.check(t, e, ctl)
		})
	}
}

// TestChaosAllReplicasCorrupted: when every replica of a block is corrupt,
// the data is genuinely lost — the read must fail cleanly (CRC failures on
// all copies, then a lost-block error), never return corrupt bytes.
func TestChaosAllReplicasCorrupted(t *testing.T) {
	e := newEnv(t, 3, 0.002)
	path := e.dimPartFile(t, "date")
	locs, err := e.fs.BlockLocations(path, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) == 0 || len(locs[0].Hosts) == 0 {
		t.Fatal("no replicas for date dim block 0")
	}
	var corruptions []chaos.Corruption
	for _, n := range locs[0].Hosts {
		corruptions = append(corruptions, chaos.Corruption{Path: path, Block: 0, Node: n})
	}
	ctl := chaos.New(e.cluster, e.fs, chaos.Plan{Name: "all-corrupt", Corruptions: corruptions}, e.reg)
	if err := ctl.Start(); err != nil {
		t.Fatal(err)
	}
	defer ctl.Stop()

	eng := core.New(e.mr, e.lay.Catalog(), core.Options{})
	q, err := ssb.QueryByName("Q1.1")
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := eng.Run(context.Background(), q)
	if err == nil {
		// The only acceptable success is a correct one (e.g. if the engine
		// re-reads a healed copy); silent corruption is the failure mode.
		want, rerr := refexec.Run(e.gen, q)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
			t.Fatalf("corrupt data silently returned: %s", why)
		}
		t.Fatal("query succeeded with every replica corrupt; expected a clean error")
	}
	if got := e.fs.Metrics().Snapshot().CRCFailures; got < int64(len(corruptions)) {
		t.Errorf("CRCFailures = %d, want >= %d (every replica tried)", got, len(corruptions))
	}
}

var (
	wordSchema  = records.NewSchema(records.F("word", records.KindString))
	countSchema = records.NewSchema(records.F("n", records.KindInt64))
)

// blockOnVictim is a mapper whose attempt on the victim node signals the
// test, then blocks until the node is killed and aborts — modeling a task
// caught in-flight on a dying machine.
type blockOnVictim struct {
	ctx     *mr.TaskContext
	victim  string
	started *sync.Once
	ch      chan struct{}
}

func (m *blockOnVictim) Setup(ctx *mr.TaskContext) error { m.ctx = ctx; return nil }
func (m *blockOnVictim) Cleanup(mr.Collector) error      { return nil }
func (m *blockOnVictim) Map(_, v records.Record, out mr.Collector) error {
	if m.ctx.Node().ID() == m.victim {
		m.started.Do(func() { close(m.ch) })
		for m.ctx.Node().IsAlive() {
			time.Sleep(time.Millisecond)
		}
		return fmt.Errorf("chaos test: attempt on killed node %s aborted", m.victim)
	}
	return out.Collect(v, records.Make(countSchema, records.Int(1)))
}

// TestDeadNodeRequeuesInFlightAttempts kills a node while one of its map
// attempts is mid-flight. The scheduler must requeue the attempt onto a
// live node immediately (surfaced via ATTEMPTS_REQUEUED_DEAD_NODE and the
// mr.attempts_requeued_dead_node counter), stop assigning work to the dead
// node, and the job must still produce exact counts.
func TestDeadNodeRequeuesInFlightAttempts(t *testing.T) {
	c := cluster.New(cluster.Testing(3))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 23})
	reg := obs.NewRegistry()
	eng := mr.NewEngine(c, fs, mr.Options{Metrics: reg})

	mkSplit := func(host string, words ...string) *mr.MemorySplit {
		s := &mr.MemorySplit{Hosts: []string{host}}
		for _, w := range words {
			s.Pairs = append(s.Pairs, mr.KV{Value: records.Make(wordSchema, records.Str(w))})
		}
		return s
	}
	splits := []*mr.MemorySplit{
		mkSplit("node-0", "a", "a"),
		mkSplit("node-1", "b", "b", "b"), // the in-flight attempt to requeue
		mkSplit("node-2", "c"),
	}

	started := make(chan struct{})
	var once sync.Once
	out := &mr.MemoryOutput{}
	job := &mr.Job{
		Name:  "chaos-requeue",
		Input: &mr.MemoryInput{SplitsList: splits},
		NewMapper: func() mr.Mapper {
			return &blockOnVictim{victim: "node-1", started: &once, ch: started}
		},
		NewReducer: func() mr.Reducer {
			return mr.ReducerFunc(func(k records.Record, vs mr.Values, out mr.Collector) error {
				var sum int64
				for v, ok := vs.Next(); ok; v, ok = vs.Next() {
					sum += v.Get("n").Int64()
				}
				return out.Collect(k, records.Make(countSchema, records.Int(sum)))
			})
		},
		Output:         out,
		NumReduceTasks: 1,
		KeySchema:      wordSchema,
		ValueSchema:    countSchema,
	}

	go func() {
		<-started
		c.Node("node-1").Kill()
	}()

	res, err := eng.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}

	counts := map[string]int64{}
	for _, kv := range out.Pairs() {
		counts[kv.Key.Get("word").Str()] = kv.Value.Get("n").Int64()
	}
	if counts["a"] != 2 || counts["b"] != 3 || counts["c"] != 1 {
		t.Errorf("counts = %v, want a:2 b:3 c:1", counts)
	}
	if got := res.Counters.Get(mr.CtrAttemptsRequeuedDeadNode); got < 1 {
		t.Errorf("ATTEMPTS_REQUEUED_DEAD_NODE = %d, want >= 1", got)
	}
	if got := reg.Counter("mr.attempts_requeued_dead_node").Value(); got < 1 {
		t.Errorf("mr.attempts_requeued_dead_node = %d, want >= 1", got)
	}
	// Nothing may leak: the dead node's reservations died with it, and the
	// winning attempts released theirs.
	for _, n := range c.Alive() {
		if used := n.MemoryUsed(); used != 0 {
			t.Errorf("%s leaked %d bytes", n.ID(), used)
		}
	}
}

// TestRecoveryOverheadReport measures wall-clock recovery overhead with a
// real time scale: Q1.1 and Q4.2 healthy vs 8x straggler vs mid-job node
// kill. The numbers land in EXPERIMENTS.md; the assertion here is only
// that every run stays correct.
func TestRecoveryOverheadReport(t *testing.T) {
	if testing.Short() {
		t.Skip("timing report")
	}
	run := func(t *testing.T, plan *chaos.Plan, speculative bool, names ...string) map[string]time.Duration {
		cfg := cluster.Testing(4)
		cfg.TimeScale = 10 // modeled second → 10 real seconds; queries model ~ms
		e := newEnvConfig(t, cfg, 0.002)
		if plan != nil {
			ctl := chaos.New(e.cluster, e.fs, *plan, e.reg)
			if err := ctl.Start(); err != nil {
				t.Fatal(err)
			}
			defer ctl.Stop()
		}
		eng := core.New(e.mr, e.lay.Catalog(), core.Options{Speculative: speculative})
		times := make(map[string]time.Duration, len(names))
		for _, name := range names {
			q, err := ssb.QueryByName(name)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			rs, _, err := eng.Run(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			times[name] = time.Since(start)
			want, err := refexec.Run(e.gen, q)
			if err != nil {
				t.Fatal(err)
			}
			if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
				t.Fatalf("%s: %s", name, why)
			}
		}
		return times
	}

	queries := []string{"Q1.1", "Q4.2"}
	healthy := run(t, nil, false, queries...)
	straggler := run(t, &chaos.Plan{
		Name:       "straggler",
		Stragglers: []chaos.SlowDisk{{Node: "node-2", Factor: 8}},
	}, true, queries...)
	kill := run(t, &chaos.Plan{
		Name:  "kill",
		Kills: []chaos.NodeKill{{Node: "node-1", AfterBlockReads: 20}},
	}, false, queries...)

	for _, q := range queries {
		t.Logf("%s: healthy=%v straggler(8x,spec)=%v node-kill=%v",
			q, healthy[q].Round(time.Millisecond),
			straggler[q].Round(time.Millisecond),
			kill[q].Round(time.Millisecond))
	}
}

// TestChaosHiveRepartitionNodeKill: the Hive baseline's repartition join
// under a node kill that fires inside a join stage. The shuffle recycles
// its buffers, and recovery is where an output can be replaced while a
// reducer still merges it, so the stage must have re-executed a map or
// retried a task, and the answers must be the healthy run's.
func TestChaosHiveRepartitionNodeKill(t *testing.T) {
	load := func(t *testing.T) (*env, *hive.Engine) {
		c := cluster.New(cluster.Testing(4))
		fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 23})
		gen := ssb.NewGenerator(0.002, 42)
		lay, err := ssb.Load(fs, gen, "/ssb", ssb.LoadOptions{PartitionRows: 1000, RCGroupRows: 1000})
		if err != nil {
			t.Fatal(err)
		}
		e := &env{cluster: c, fs: fs, mr: mr.NewEngine(c, fs, mr.Options{}), gen: gen, lay: lay}
		return e, hive.New(e.mr, lay.RCCatalog(), hive.Options{Strategy: hive.Repartition})
	}
	for _, name := range []string{"Q2.1", "Q4.1"} {
		t.Run(name, func(t *testing.T) {
			q, err := ssb.QueryByName(name)
			if err != nil {
				t.Fatal(err)
			}
			_, healthy := load(t)
			want, _, err := healthy.Execute(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}

			e, eng := load(t)
			ctl := chaos.New(e.cluster, e.fs, chaos.Plan{Name: "hive-kill", Seed: 5,
				Kills: []chaos.NodeKill{{Node: "node-1", AfterBlockReads: 8}}}, nil)
			if err := ctl.Start(); err != nil {
				t.Fatal(err)
			}
			defer ctl.Stop()
			got, rep, err := eng.Execute(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if e.cluster.Node("node-1").IsAlive() {
				t.Fatal("node-1 is alive: the kill never fired")
			}
			recovered := false
			for _, st := range rep.Stages {
				c := st.Job.Counters
				if st.Kind == "join" && c.Get(mr.CtrMapsReExecuted)+c.Get(mr.CtrTaskRetries) > 0 {
					recovered = true
				}
				t.Logf("%s (%s): maps re-executed %d, task retries %d, attempts requeued %d", st.Name, st.Kind,
					c.Get(mr.CtrMapsReExecuted), c.Get(mr.CtrTaskRetries), c.Get(mr.CtrAttemptsRequeuedDeadNode))
			}
			if !recovered {
				t.Error("no join stage re-executed a map or retried a task: the kill fired outside the joins")
			}
			if ok, why := results.Equivalent(got, want, 1e-9); !ok {
				t.Fatalf("answer under the kill differs from the healthy run's: %s\ngot:\n%swant:\n%s", why, got, want)
			}
		})
	}
}
