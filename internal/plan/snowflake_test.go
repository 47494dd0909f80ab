package plan_test

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"os"
	"path"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
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
	jobs *obs.Counter // mr.jobs_submitted
}

// newSnowEnv loads the seed's snowflake dataset on a three-node test
// cluster; nodeMemory > 0 overrides the per-node memory budget.
func newSnowEnv(t *testing.T, seed uint64, factRows, nodeMemory int64) *snowEnv {
	t.Helper()
	cfg := cluster.Testing(3)
	if nodeMemory > 0 {
		cfg.MemoryPerNode = nodeMemory
	}
	return newSnowEnvOn(t, cfg, seed, factRows)
}

func newSnowEnvOn(t *testing.T, cfg cluster.Config, seed uint64, factRows int64) *snowEnv {
	t.Helper()
	c := cluster.New(cfg)
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: int64(seed)})
	snow := ssb.GenSnowflake(seed, factRows)
	lay, err := ssb.LoadSnowflake(fs, snow, "/snow")
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewMemorySink()
	reg := obs.NewRegistry()
	eng := mr.NewEngine(c, fs, mr.Options{Tracer: obs.NewTracer(sink), Metrics: reg})
	return &snowEnv{snow: snow, lay: lay, fs: fs, mr: eng, sink: sink, jobs: reg.Counter("mr.jobs_submitted")}
}

func (e *snowEnv) engine(ab core.Ablate) *core.Engine {
	return core.New(e.mr, e.lay.Catalog(e.snow), core.Options{Ablate: ab})
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
		tables, err := core.BuildDimTables(specs, snow.Each)
		if err != nil {
			t.Fatal(err)
		}
		var pass int64
		for _, h := range tables {
			pass += h.MemBytes
			largest = max(largest, h.MemBytes)
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
// lowered plan (one pass per depth level) and as its one-step-per-pass form
// — each under full Clydesdale and under each of the paper's four ablations
// (Figure 9) — through the automatic fallback from the first to the second
// on a cluster whose nodes hold the largest single table but not a level's
// tables together, and on the Hive baseline with both join strategies, must
// all equal the logical-plan oracle.
func TestSnowflakePropertyAllStrategiesAgree(t *testing.T) {
	for _, seed := range []uint64{7, 23, 101} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			e := newSnowEnv(t, seed, 3000, 0)
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
				if depth < 2 || len(p.Passes) != depth {
					t.Fatalf("q%d lowered to passes %v, want one pass per level of depth %d", qi, p.Passes, depth)
				}
				for _, v := range []struct {
					what   string
					p      *plan.Physical
					passes int
				}{
					{"lowered", p, depth},
					{"one-step-per-pass", p.OneStepPerPass(), len(p.Steps)},
				} {
					for name, ab := range map[string]core.Ablate{
						"":                        0,
						" no-columnar":            core.NoColumnarStorage,
						" no-block-iteration":     core.NoBlockIteration,
						" no-multithread":         core.NoMultiThreading,
						" no-in-mapper-combining": core.NoInMapperCombining,
					} {
						got, rep, err := e.engine(ab).RunPlan(context.Background(), v.p)
						if err != nil {
							t.Fatalf("q%d %s%s: %v", qi, v.what, name, err)
						}
						check(v.what+name, got)
						if rep.Passes != v.passes {
							t.Errorf("q%d %s%s report: passes=%d, want %d", qi, v.what, name, rep.Passes, v.passes)
						}
					}
				}

				// Memory pressure: the lowered plan's largest pass does not
				// fit, every single table does, so the run must fall back to
				// one step per pass by itself.
				if budget := tightBudget(t, e.snow, p); budget > 0 {
					fallbacks++
					tight := newSnowEnv(t, seed, 3000, budget)
					got, rep, err := tight.engine(0).RunPlan(context.Background(), p)
					if err != nil {
						t.Fatalf("q%d fallback under a %d-byte node budget: %v", qi, budget, err)
					}
					check("fallback", got)
					if rep.Passes != len(p.Steps) {
						t.Errorf("q%d fallback report: passes=%d, want %d", qi, rep.Passes, len(p.Steps))
					}
					if files := tight.fs.List("/tmp/clydesdale/"); len(files) != 0 {
						t.Errorf("q%d fallback left intermediates: %v", qi, files)
					}
				}

				// The Hive baseline lowers the same IR; both join
				// strategies must agree too.
				rc := e.lay.Catalog(e.snow)
				rc.FactDir = e.lay.FactRC
				for _, strat := range []hive.JoinStrategy{hive.Repartition, hive.MapJoin} {
					heng := hive.New(e.mr, rc, hive.Options{Strategy: strat})
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

// intermediateSpy is a read hook that notes, at every block read, which
// directories exist under /tmp/clydesdale/: every pass but the first reads
// what the pass before it wrote, so a directory any job of a query writes is
// seen by the time the last job reads its input.
type intermediateSpy struct {
	fs   *hdfs.FileSystem
	mu   sync.Mutex
	dirs map[string]bool
}

func (s *intermediateSpy) BeforeBlockRead(string, int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range s.fs.List("/tmp/clydesdale/") {
		s.dirs[path.Dir(f)] = true
	}
	return nil
}

// TestSnowflakeRunsOneJobPerPassLastAggregating executes snowflake plans,
// as lowered and one step per pass, and verifies the structure the executor
// promises: a plan of d passes (the depth as lowered, the number of steps
// when cut one per pass) submits exactly d jobs, every one of which builds
// hash tables; the first d−1 are map-only — no shuffle, sort or reduce span,
// each carrying its joined rows through one intermediate directory to the
// next job's map side — and the last one reduces: there is no job that only
// aggregates. Nothing is left under /tmp/clydesdale/, and the count is what
// the report and the EXPLAIN ANALYZE header say.
func TestSnowflakeRunsOneJobPerPassLastAggregating(t *testing.T) {
	for _, seed := range []uint64{7, 11, 42} { // query 0 of these: depth 2, 3, 3
		e := newSnowEnv(t, seed, 3000, 0)
		lowered, err := plan.Lower(e.snow.RandomSnowQuery(0))
		if err != nil {
			t.Fatal(err)
		}
		if depth := lowered.Shape.MaxDepth(); depth < 2 || len(lowered.Passes) != depth {
			t.Fatalf("seed %d: query 0 has depth %d and passes %v, want a snowflake cut by level", seed, depth, lowered.Passes)
		}
		for _, p := range []*plan.Physical{lowered, lowered.OneStepPerPass()} {
			d := len(p.Passes)
			what := fmt.Sprintf("seed %d, %d passes", seed, d)
			spy := &intermediateSpy{fs: e.fs, dirs: map[string]bool{}}
			e.fs.SetReadFaultInjector(spy)
			e.sink.Reset()
			submitted := e.jobs.Value()
			_, rep, err := e.engine(0).RunPlan(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			e.fs.SetReadFaultInjector(nil)
			if n := e.jobs.Value() - submitted; n != int64(d) {
				t.Errorf("%s: %d jobs submitted, want one per pass", what, n)
			}
			if rep.Passes != d {
				t.Errorf("%s: report says passes=%d, want %d", what, rep.Passes, d)
			}
			if len(spy.dirs) != d-1 {
				t.Errorf("%s: %d intermediate directories written, want %d: %v", what, len(spy.dirs), d-1, spy.dirs)
			}
			if files := e.fs.List("/tmp/clydesdale/"); len(files) != 0 {
				t.Errorf("%s: leftover intermediates: %v", what, files)
			}

			// The jobs in submission order, each with the phases it ran.
			spans := e.sink.Spans()
			var jobs []obs.Span
			phases := map[string]map[string]bool{}
			for _, s := range spans {
				if s.Name == obs.PhaseJob {
					jobs = append(jobs, s)
				}
				if phases[s.Job] == nil {
					phases[s.Job] = map[string]bool{}
				}
				phases[s.Job][s.Name] = true
			}
			sort.Slice(jobs, func(i, j int) bool { return jobs[i].Start.Before(jobs[j].Start) })
			if len(jobs) != d {
				t.Fatalf("%s: %d job spans, want %d", what, len(jobs), d)
			}
			for i, j := range jobs {
				ran := phases[j.Job]
				if !ran[obs.PhaseHashBuild] {
					t.Errorf("%s: job %d of %d built no hash table", what, i+1, d)
				}
				reduces := ran[obs.PhaseShuffle] || ran[obs.PhaseSort] || ran[obs.PhaseReduce]
				if last := i == d-1; last && !ran[obs.PhaseReduce] {
					t.Errorf("%s: the last job ran no reduce phase; the last pass must aggregate", what)
				} else if !last && reduces {
					t.Errorf("%s: job %d of %d ran a shuffle, sort or reduce phase; every pass but the last must be map-only", what, i+1, d)
				}
			}

			prof, err := obs.BuildProfile(spans, obs.ProfileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var text bytes.Buffer
			prof.WriteText(&text)
			if header := fmt.Sprintf("plan: staged passes=%d\n", d); !strings.Contains(text.String(), header) {
				t.Errorf("%s: EXPLAIN ANALYZE lacks the header line %q:\n%s", what, header, text.String())
			}
		}
	}
}

// TestSnowflakeCountersGolden pins the multi-pass path's work the way
// core's TestRunCountersGolden pins the star path's: query 0 of seeds 7, 11
// and 42, as lowered and one step per pass, must reproduce the counters
// checked in under testdata — every counter of the run but the *_NANOS
// timings, plus the jobs submitted and the rows carried through
// intermediates. Regenerate with `go test ./internal/plan -run
// SnowflakeCountersGolden -update`, only for an intended change.
func TestSnowflakeCountersGolden(t *testing.T) {
	// One worker with one map slot: with more, which node builds tables and
	// which thread's partial sums hold which groups vary from run to run.
	cfg := cluster.Testing(1)
	cfg.MapSlots = 1
	var b strings.Builder
	for _, seed := range []uint64{7, 11, 42} {
		const factRows = 3000
		e := newSnowEnvOn(t, cfg, seed, factRows)
		lowered, err := plan.Lower(e.snow.RandomSnowQuery(0))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []*plan.Physical{lowered, lowered.OneStepPerPass()} {
			submitted := e.jobs.Value()
			_, rep, err := e.engine(0).RunPlan(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			c := rep.Job.Counters
			// Every fact row is pruned, skipped or probed by the first pass;
			// every other probed row was carried there by an intermediate.
			firstPass := factRows - c.Get(colstore.CtrRowsPruned) - c.Get(colstore.CtrRowsLateSkipped) - c.Get(colstore.CtrRowsBloomSkipped)
			fmt.Fprintf(&b, "seed-%d/q0 passes=%d jobs_submitted=%d intermediate_rows=%d\n",
				seed, rep.Passes, e.jobs.Value()-submitted, c.Get(core.CtrProbeRows)-firstPass)
			for _, name := range slices.Sorted(maps.Keys(c.Snapshot())) {
				if !strings.HasSuffix(name, "_NANOS") {
					fmt.Fprintf(&b, "  %s=%d\n", name, c.Get(name))
				}
			}
		}
	}
	const golden = "testdata/snow_counters.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("snowflake run counters differ from %s (regenerate with -update only for an intended change)\ngot:\n%swant:\n%s", golden, got, want)
	}
}
