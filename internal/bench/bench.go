// Package bench is the experiment harness: it reconstructs every table and
// figure of the paper's evaluation (§6) on the simulated substrate —
// Figure 7 (Clydesdale vs Hive on cluster A), Figure 8 (cluster B),
// Figure 9 (feature ablation), Table 1 (TestDFSIO), and the §6.3 query-2.1
// anatomy — printing paper-style rows and returning structured results the
// benchmarks and EXPERIMENTS.md assertions consume.
//
// Scaling substitutions (see DESIGN.md): datasets use NewBenchGenerator so
// dimension cardinalities keep their SF1000 proportions at an in-process
// fact size; per-node memory budgets are *calibrated* from the measured
// hash-table sizes so that exactly the queries that OOMed on the paper's
// memory-constrained cluster A (Q3.1, Q4.1–Q4.3 under mapjoin) OOM here,
// and none do on cluster B. Absolute seconds are not comparable to the
// paper's and are not claimed; shapes (who wins, by what factor, where
// mapjoin dies) are.
package bench

import (
	"fmt"
	"io"
	"time"

	"clydesdale/internal/cluster"
	"clydesdale/internal/core"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/hive"
	"clydesdale/internal/mr"
	"clydesdale/internal/records"
	"clydesdale/internal/ssb"
)

// Config tunes the harness.
type Config struct {
	// DimScale scales the SF1000-shaped dimension cardinalities (default 2:
	// 60 k customers, 4 k suppliers, 4.4 k parts).
	DimScale float64
	// FactRows is the lineorder cardinality (default 60 000).
	FactRows int64
	// Seed makes runs reproducible.
	Seed uint64
	// TimeScale converts modeled I/O/overhead time into real sleeps so that
	// wall-clock measurements include the modeled cluster costs (default
	// 5e-3: one modeled second sleeps 5 ms).
	TimeScale float64
	// IOScale divides the modeled disk/network bandwidths for the query
	// experiments (applied after data loading). The simulated dataset is
	// thousands of times smaller than SF1000, but per-task overheads are
	// modeled at their natural scale; dividing bandwidth restores the
	// paper's I/O-to-overhead ratio (fact scans take minutes, not
	// milliseconds, of modeled time). Default 2000. Table 1 always runs at
	// nominal bandwidth (IOScale 1) since it reports absolute MB/s.
	IOScale float64
	// TaskLaunchOverhead and JVMStartup are the modeled per-task costs
	// (defaults 1 s and 3 s modeled, the order Hadoop exhibits).
	TaskLaunchOverhead time.Duration
	JVMStartup         time.Duration
	// Repeats is how many times each query runs per system; the median is
	// reported (the paper averages three runs, §6.3). Default 3.
	Repeats int
	// WorkersA/WorkersB override the cluster sizes (defaults 8 and 40, the
	// paper's worker counts).
	WorkersA int
	WorkersB int
	// Verbose echoes progress while running.
	Verbose bool
}

// withDefaults fills zero fields. The defaults keep the paper's structural
// ratios: the fact table dominates the dimensions (120 k rows vs a 30 k-row
// customer table) and modeled per-task overheads are visible in wall time.
func (c Config) withDefaults() Config {
	if c.DimScale <= 0 {
		c.DimScale = 1
	}
	if c.FactRows <= 0 {
		c.FactRows = 120_000
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.TimeScale < 0 {
		c.TimeScale = 0
	} else if c.TimeScale == 0 {
		c.TimeScale = 5e-3
	}
	if c.TaskLaunchOverhead == 0 {
		c.TaskLaunchOverhead = time.Second
	}
	if c.JVMStartup == 0 {
		c.JVMStartup = 3 * time.Second
	}
	if c.IOScale <= 0 {
		c.IOScale = 2000
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
	if c.WorkersA <= 0 {
		c.WorkersA = 8
	}
	if c.WorkersB <= 0 {
		c.WorkersB = 40
	}
	return c
}

// Harness runs the experiments.
type Harness struct {
	cfg Config
	gen *ssb.Generator
	// hashSum caches per-query total hash-table bytes under Clydesdale's
	// open-addressing layout (what a Clydesdale node holds resident);
	// hashMax caches the largest single dimension's table under the boxed
	// mapjoin layout (what one mapjoin task holds) — two different
	// estimators because the two engines build different structures.
	hashSum map[string]int64
	hashMax map[string]int64
}

// Defaults is what a zero Config runs as; cmd/benchssb's flag defaults are
// these, so its help states what runs.
func Defaults() Config { return Config{}.withDefaults() }

// NewHarness builds a harness.
func NewHarness(cfg Config) (*Harness, error) {
	cfg = cfg.withDefaults()
	h := &Harness{
		cfg: cfg,
		gen: ssb.NewBenchGenerator(cfg.DimScale, cfg.FactRows, cfg.Seed),
	}
	if err := h.estimateHashSizes(); err != nil {
		return nil, err
	}
	return h, nil
}

func (h *Harness) estimateHashSizes() error {
	h.hashSum = make(map[string]int64)
	h.hashMax = make(map[string]int64)
	each := func(tbl string, fn func(records.Record) error) error { return h.gen.Each(tbl, fn) }
	for _, q := range ssb.Queries() {
		per, err := core.EstimateDimHashBytes(q.Dims, each)
		if err != nil {
			return err
		}
		for _, b := range per {
			h.hashSum[q.Name] += b
		}
		mjPer, err := hive.EstimateMapJoinHashBytes(q.Dims, each)
		if err != nil {
			return err
		}
		for _, b := range mjPer {
			if b > h.hashMax[q.Name] {
				h.hashMax[q.Name] = b
			}
		}
	}
	return nil
}

// mapjoinOOMSet is the set of queries whose mapjoin plans ran out of memory
// on the paper's cluster A (Figure 7's missing bars).
var mapjoinOOMSet = map[string]bool{"Q3.1": true, "Q4.1": true, "Q4.2": true, "Q4.3": true}

// CalibrateBudgets derives the per-node memory budgets. A mapjoin task
// holds one dimension hash table at a time, so cluster A's per-slot
// allowance is placed between the largest single-dimension table of any
// passing query and the smallest of any OOM-set query; cluster B's
// allowance fits every query's largest table. Both budgets must also hold
// one full Clydesdale copy (the sum), which the paper's clusters always
// could. It errors if the measured sizes no longer separate (which would
// mean the dataset shape drifted).
func (h *Harness) CalibrateBudgets(slots int) (budgetA, budgetB int64, err error) {
	var maxPass, minFail, maxFail, maxSum int64
	minFail = 1 << 62
	for name, size := range h.hashMax {
		if mapjoinOOMSet[name] {
			if size < minFail {
				minFail = size
			}
			if size > maxFail {
				maxFail = size
			}
		} else if size > maxPass {
			maxPass = size
		}
	}
	for _, sum := range h.hashSum {
		if sum > maxSum {
			maxSum = sum
		}
	}
	if maxPass >= minFail {
		return 0, 0, fmt.Errorf("bench: hash sizes do not separate the OOM set: max pass %d >= min fail %d", maxPass, minFail)
	}
	allowanceA := (maxPass + minFail) / 2
	allowanceB := maxFail + maxFail/4
	budgetA = allowanceA * int64(slots)
	budgetB = allowanceB * int64(slots)
	if maxSum > budgetA || maxSum > budgetB {
		return 0, 0, fmt.Errorf("bench: Clydesdale's resident tables (%d bytes) exceed a calibrated budget (A=%d, B=%d)", maxSum, budgetA, budgetB)
	}
	return budgetA, budgetB, nil
}

// Env is one prepared cluster + dataset.
type Env struct {
	Cluster *cluster.Cluster
	FS      *hdfs.FileSystem
	MR      *mr.Engine
	Layout  *ssb.Layout
}

// SetupCluster builds the named profile ("A" or "B"), loads the dataset and
// warms the dimension cache.
func (h *Harness) SetupCluster(profile string) (*Env, error) {
	return h.setupCluster(profile, false)
}

// SetupClusterRelaxedMemory is SetupCluster with an uncalibrated, generous
// memory budget. Figure 9's single-threaded ablation needs it: per-task
// private hash-table copies fit in the paper's 16 GB nodes at SF1000, but
// not in the budget calibrated to reproduce the mapjoin OOMs, because that
// calibration shrinks the per-slot allowance below one full copy.
func (h *Harness) SetupClusterRelaxedMemory(profile string) (*Env, error) {
	return h.setupCluster(profile, true)
}

func (h *Harness) setupCluster(profile string, relaxMemory bool) (*Env, error) {
	var cfg cluster.Config
	switch profile {
	case "A":
		cfg = cluster.ClusterA()
		cfg.Workers = h.cfg.WorkersA
	case "B":
		cfg = cluster.ClusterB()
		cfg.Workers = h.cfg.WorkersB
	default:
		return nil, fmt.Errorf("bench: unknown cluster profile %q", profile)
	}
	budgetA, budgetB, err := h.CalibrateBudgets(cfg.MapSlots)
	if err != nil {
		return nil, err
	}
	if profile == "A" {
		cfg.MemoryPerNode = budgetA
	} else {
		cfg.MemoryPerNode = budgetB
	}
	if relaxMemory {
		cfg.MemoryPerNode = budgetB * 16
	}
	cfg.TimeScale = h.cfg.TimeScale

	c := cluster.New(cfg)
	fs := hdfs.New(c, hdfs.Options{BlockSize: 256 << 10, Seed: int64(h.cfg.Seed)})
	lay, err := ssb.Load(fs, h.gen, "/ssb", ssb.LoadOptions{RCGroupRows: 2048})
	if err != nil {
		return nil, err
	}
	env := &Env{
		Cluster: c,
		FS:      fs,
		MR: mr.NewEngine(c, fs, mr.Options{
			TaskLaunchOverhead: h.cfg.TaskLaunchOverhead,
			JVMStartup:         h.cfg.JVMStartup,
		}),
		Layout: lay,
	}
	if _, err := core.EnsureCatalogCached(fs, lay.Catalog()); err != nil {
		return nil, err
	}
	// Loading and cache warming ran at nominal bandwidth; the experiments
	// run with I/O slowed so modeled scans and intermediate I/O carry
	// paper-like weight against per-task overheads.
	c.ScaleIO(h.cfg.IOScale)
	return env, nil
}

// Clydesdale builds a Clydesdale engine over the env, without the
// techniques in ablate.
func (e *Env) Clydesdale(ablate core.Ablate) *core.Engine {
	return core.New(e.MR, e.Layout.Catalog(), core.Options{Ablate: ablate})
}

// Hive builds a baseline engine over the env.
func (e *Env) Hive(strategy hive.JoinStrategy) *hive.Engine {
	return hive.New(e.MR, e.Layout.RCCatalog(), hive.Options{Strategy: strategy})
}

func (h *Harness) logf(w io.Writer, format string, args ...any) {
	if h.cfg.Verbose && w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
