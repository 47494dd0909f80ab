package plan_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/core"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/hive"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/plan"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/ssb"
)

type snowEnv struct {
	snow *ssb.Snowflake
	lay  *ssb.SnowLayout
	fs   *hdfs.FileSystem
	mr   *mr.Engine
	sink *obs.MemorySink
}

// newSnowEnv loads the seed's snowflake dataset on a three-node test
// cluster; nodeMemory > 0 overrides the per-node memory budget.
func newSnowEnv(t *testing.T, seed uint64, factRows, nodeMemory int64) *snowEnv {
	t.Helper()
	cfg := cluster.Testing(3)
	if nodeMemory > 0 {
		cfg.MemoryPerNode = nodeMemory
	}
	c := cluster.New(cfg)
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: int64(seed)})
	snow := ssb.GenSnowflake(seed, factRows)
	lay, err := ssb.LoadSnowflake(fs, snow, "/snow")
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewMemorySink()
	tracer := obs.NewTracer(sink)
	return &snowEnv{snow: snow, lay: lay, fs: fs, mr: mr.NewEngine(c, fs, mr.Options{Tracer: tracer}), sink: sink}
}

func (e *snowEnv) engine() *core.Engine {
	return core.New(e.mr, e.lay.Catalog(e.snow), core.Options{})
}

// tightBudget returns a node memory budget that holds the largest single
// hash table of p but not the tables of its largest pass together, or 0 when
// no such budget exists (the largest table is a pass of its own and
// outweighs every other pass).
func tightBudget(t *testing.T, snow *ssb.Snowflake, p *plan.Physical) int64 {
	t.Helper()
	var largest, largestPass int64
	for _, steps := range p.PassSteps() {
		specs := make([]core.DimSpec, len(steps))
		for i := range steps {
			specs[i] = core.DimSpecOf(&steps[i].JoinEdge)
		}
		per, err := core.EstimateDimHashBytes(specs, snow.Each)
		if err != nil {
			t.Fatal(err)
		}
		var pass int64
		for _, b := range per {
			pass += b
			if b > largest {
				largest = b
			}
		}
		if pass > largestPass {
			largestPass = pass
		}
	}
	if largestPass <= largest {
		return 0
	}
	return largest + (largestPass-largest)/2
}

// TestSnowflakePropertyAllStrategiesAgree is the lowering's property test:
// random snowflake schemas and random queries over them, executed as the
// lowered plan (one pass per depth level), as its one-step-per-pass form,
// through the automatic fallback from the first to the second on a cluster
// whose nodes hold the largest single table but not a level's tables
// together, and on the Hive baseline with both join strategies, must all
// equal the logical-plan oracle.
func TestSnowflakePropertyAllStrategiesAgree(t *testing.T) {
	for _, seed := range []uint64{7, 23, 101} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			e := newSnowEnv(t, seed, 3000, 0)
			eng := e.engine()
			fallbacks := 0
			for qi := int64(0); qi < 3; qi++ {
				l := e.snow.RandomSnowQuery(qi)
				want, err := refexec.RunLogical(l, e.snow.Each)
				if err != nil {
					t.Fatalf("q%d oracle: %v", qi, err)
				}
				check := func(what string, got *results.ResultSet) {
					t.Helper()
					if ok, why := results.Equivalent(got, want, 1e-9); !ok {
						t.Errorf("q%d %s disagrees with oracle: %s\ngot:\n%s\nwant:\n%s", qi, what, why, got, want)
					}
				}
				p, err := plan.Lower(l)
				if err != nil {
					t.Fatalf("q%d lower: %v", qi, err)
				}
				depth := p.Shape.MaxDepth()
				if p.Kind != plan.KindStaged || len(p.Passes) != depth {
					t.Fatalf("q%d lowered to %s passes %v, want one staged pass per level of depth %d", qi, p.Kind, p.Passes, depth)
				}
				for _, v := range []struct {
					what   string
					p      *plan.Physical
					passes int
				}{
					{"lowered", p, depth},
					{"one-step-per-pass", p.OneStepPerPass(), len(p.Steps)},
				} {
					got, rep, err := eng.RunPlan(context.Background(), v.p)
					if err != nil {
						t.Fatalf("q%d %s: %v", qi, v.what, err)
					}
					check(v.what, got)
					if !rep.Staged || rep.Passes != v.passes {
						t.Errorf("q%d %s report: staged=%v passes=%d, want %d passes", qi, v.what, rep.Staged, rep.Passes, v.passes)
					}
				}

				// Memory pressure: the lowered plan's largest pass does not
				// fit, every single table does, so the run must fall back to
				// one step per pass by itself.
				if budget := tightBudget(t, e.snow, p); budget > 0 {
					fallbacks++
					tight := newSnowEnv(t, seed, 3000, budget)
					got, rep, err := tight.engine().RunPlan(context.Background(), p)
					if err != nil {
						t.Fatalf("q%d fallback under a %d-byte node budget: %v", qi, budget, err)
					}
					check("fallback", got)
					if !rep.Staged || rep.Passes != len(p.Steps) {
						t.Errorf("q%d fallback report: staged=%v passes=%d, want %d passes", qi, rep.Staged, rep.Passes, len(p.Steps))
					}
					if files := tight.fs.List("/tmp/clydesdale/"); len(files) != 0 {
						t.Errorf("q%d fallback left intermediates: %v", qi, files)
					}
				}

				// The Hive baseline lowers the same IR; both join
				// strategies must agree too.
				for _, strat := range []hive.JoinStrategy{hive.Repartition, hive.MapJoin} {
					heng := hive.New(e.mr, e.lay.RCCatalog(e.snow), hive.Options{Strategy: strat})
					got, _, err := heng.ExecutePlan(context.Background(), l)
					if err != nil {
						t.Fatalf("q%d hive %s: %v", qi, strat, err)
					}
					check("hive "+strat.String(), got)
				}
			}
			if fallbacks == 0 {
				t.Error("no query of this seed admits a budget between its largest table and its largest pass")
			}
			if files := e.fs.List("/tmp/clydesdale/"); len(files) != 0 {
				t.Errorf("leftover intermediates: %v", files)
			}
		})
	}
}

// TestSnowflakeRunsOneMapOnlyJobPerLevel executes lowered snowflake plans
// and verifies, from the span tree, what the lowering promises: a depth-d
// plan runs exactly d join jobs (the ones whose tasks build hash tables),
// none of them with a shuffle, sort or reduce span — each level's carried
// rows feed the next level's map side directly — and the count is what the
// report and the EXPLAIN ANALYZE header say.
func TestSnowflakeRunsOneMapOnlyJobPerLevel(t *testing.T) {
	for _, seed := range []uint64{7, 11, 42} { // query 0 of these: depth 2, 3, 3
		e := newSnowEnv(t, seed, 3000, 0)
		l := e.snow.RandomSnowQuery(0)
		p, err := plan.Lower(l)
		if err != nil {
			t.Fatal(err)
		}
		depth := p.Shape.MaxDepth()
		if depth < 2 {
			t.Fatalf("seed %d: query 0 has depth %d, want a snowflake", seed, depth)
		}
		_, rep, err := e.engine().RunPlan(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Passes != depth {
			t.Errorf("seed %d: report says %d passes, want %d", seed, rep.Passes, depth)
		}

		spans := e.sink.Spans()
		joinJobs := map[string]bool{}
		for _, s := range spans {
			if s.Name == obs.PhaseHashBuild && s.Job != "" {
				joinJobs[s.Job] = true
			}
		}
		if len(joinJobs) != depth {
			t.Errorf("seed %d: %d jobs built hash tables, want %d (one per level)", seed, len(joinJobs), depth)
		}
		for _, s := range spans {
			if !joinJobs[s.Job] {
				continue
			}
			switch s.Name {
			case obs.PhaseShuffle, obs.PhaseSort, obs.PhaseReduce:
				t.Errorf("seed %d: join job %s ran a %s phase; a level pass must be map-only", seed, s.Job, s.Name)
			}
		}

		prof, err := obs.BuildProfile(spans, obs.ProfileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var text bytes.Buffer
		prof.WriteText(&text)
		if header := fmt.Sprintf("plan: staged passes=%d\n", depth); !strings.Contains(text.String(), header) {
			t.Errorf("seed %d: EXPLAIN ANALYZE lacks the header line %q:\n%s", seed, header, text.String())
		}
	}
}
