package serve_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/core"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/plan"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/serve"
	"clydesdale/internal/sql"
	"clydesdale/internal/ssb"
)

// TestServeSnowflakeOracle serves snowflake plans: three generated schemas ×
// three random queries, each schema's queries issued concurrently through
// one session whose table cache holds one query's hash tables but not all
// three queries' at once, so admission and eviction both work on the level
// passes' tables. Every answer must equal the logical-plan oracle; a repeat
// round must answer from the result cache without a MapReduce job; and the
// session must leave no intermediate in HDFS and no byte reserved on a node.
func TestServeSnowflakeOracle(t *testing.T) {
	for _, seed := range []uint64{7, 23, 101} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			c := cluster.New(cluster.Testing(3))
			fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: int64(seed)})
			snow := ssb.GenSnowflake(seed, 3000)
			lay, err := ssb.LoadSnowflake(fs, snow, "/snow")
			if err != nil {
				t.Fatal(err)
			}

			const queries = 3
			logicals := make([]*plan.Logical, queries)
			wants := make([]*results.ResultSet, queries)
			var budget int64 // the hungriest query's tables, all resident at once
			for qi := range logicals {
				l := snow.RandomSnowQuery(int64(qi))
				l.Name = fmt.Sprintf("snow-%d-q%d", seed, qi)
				logicals[qi] = l
				if wants[qi], err = refexec.RunLogical(l, snow.Each); err != nil {
					t.Fatal(err)
				}
				p, err := plan.Lower(l)
				if err != nil {
					t.Fatal(err)
				}
				specs := make([]core.DimSpec, len(p.Steps))
				for i := range p.Steps {
					specs[i] = core.DimSpecOf(&p.Steps[i].JoinEdge)
				}
				tables, err := core.BuildDimTables(specs, snow.Each)
				if err != nil {
					t.Fatal(err)
				}
				var sum int64
				for _, h := range tables {
					sum += h.MemBytes
				}
				if sum > budget {
					budget = sum
				}
			}

			reg := obs.NewRegistry()
			s := serve.New(mr.NewEngine(c, fs, mr.Options{Metrics: reg}), lay.Catalog(snow),
				serve.Options{CacheBudget: budget, MaxConcurrent: queries})
			round := func(name string) {
				t.Helper()
				var wg sync.WaitGroup
				for qi := range logicals {
					wg.Add(1)
					go func(qi int) {
						defer wg.Done()
						got, _, err := s.QueryPlan(context.Background(), logicals[qi])
						if err != nil {
							t.Errorf("%s q%d: %v", name, qi, err)
							return
						}
						if ok, why := results.Equivalent(got, wants[qi], 1e-9); !ok {
							t.Errorf("%s q%d disagrees with oracle: %s\ngot:\n%s\nwant:\n%s", name, qi, why, got, wants[qi])
						}
					}(qi)
				}
				wg.Wait()
			}

			round("cold")
			jobs := reg.Counter("mr.jobs_submitted").Value()
			if jobs == 0 {
				t.Fatal("the cold round submitted no MapReduce job")
			}
			round("repeat")
			if again := reg.Counter("mr.jobs_submitted").Value(); again != jobs {
				t.Errorf("the repeat round submitted %d MapReduce jobs; the result cache should have answered", again-jobs)
			}
			if st := s.Stats(); st.ResultHits != queries {
				t.Errorf("result cache hits = %d, want %d", st.ResultHits, queries)
			}

			if files := fs.List("/tmp/clydesdale/"); len(files) != 0 {
				t.Errorf("leftover intermediates: %v", files)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			for _, n := range c.Nodes() {
				if used := n.MemoryUsed(); used != 0 {
					t.Errorf("node %s holds %d bytes after session close", n.ID(), used)
				}
			}
		})
	}
}

// TestServeZeroJoinStatement serves a statement with no joins: a plan of
// zero steps is one pass over zero tables, so the session admits it at no
// table cost, runs one job that builds nothing, answers as the logical-plan
// oracle does and then from the result cache, and leaves no intermediate.
func TestServeZeroJoinStatement(t *testing.T) {
	e := newEnv(t, 2, 0.002, mr.Options{})
	l, err := sql.Parse("SELECT SUM(lo_revenue) AS revenue FROM lineorder WHERE lo_discount < 3", e.lay.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	want, err := refexec.RunLogical(l, e.gen.Each)
	if err != nil {
		t.Fatal(err)
	}
	s := e.session(serve.Options{})
	for _, round := range []string{"computed", "cached"} {
		rs, rep, err := s.QueryPlan(context.Background(), l)
		if err != nil {
			t.Fatalf("%s: %v", round, err)
		}
		if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
			t.Errorf("%s: %s\ngot:\n%swant:\n%s", round, why, rs, want)
		}
		if round == "computed" && (rep.Passes != 1 || rep.Job.Counters.Get(core.CtrHashTablesBuilt) != 0) {
			t.Errorf("zero joins ran %d passes with %d hash builds, want one pass that builds nothing",
				rep.Passes, rep.Job.Counters.Get(core.CtrHashTablesBuilt))
		}
	}
	if st := s.Stats(); st.ResultHits != 1 || st.Builds != 0 {
		t.Errorf("second round: %d result-cache hits and %d table builds, want 1 and 0", st.ResultHits, st.Builds)
	}
	if files := e.fs.List("/tmp/clydesdale/"); len(files) != 0 {
		t.Errorf("a one-pass plan wrote intermediates: %v", files)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	e.checkNoLeak(t)
}
