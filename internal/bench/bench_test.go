package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden")

// quickConfig is a small, fast configuration for unit-testing the harness.
// The fact table must dominate the dimensions (as in the paper) and the
// modeled scans must outweigh the per-task overheads for the figure shapes
// to emerge.
func quickConfig() Config {
	return Config{
		DimScale: 1,
		FactRows: 60_000,
		Seed:     42,
		IOScale:  400,
		WorkersA: 4,
		WorkersB: 8,
	}
}

// quick is the harness at quickConfig, built once: it holds the generator
// and the hash-table sizes, which no run changes.
var quick struct {
	once sync.Once
	h    *Harness
	err  error
}

func quickHarness(t *testing.T) *Harness {
	quick.once.Do(func() { quick.h, quick.err = NewHarness(quickConfig()) })
	if quick.err != nil {
		t.Fatal(quick.err)
	}
	return quick.h
}

// Hive's cells are node-seconds too, but a map's placement, and so its
// network charge, depends on host scheduling, so they are held by
// inequality: the best Hive plan averages above these factors of
// Clydesdale's cost. minAverageB is below minAverageA, and Figure 8's test
// holds B's average below minAverageA, so A's average exceeds B's.
const (
	minAverageA = 10.0
	minAverageB = 5.0
)

// checkGolden holds the cells of one figure, lines starting with fig, to
// those lines of testdata/figures.golden. Only cells that do not depend on
// host scheduling belong there: Clydesdale's and the ablations'. With
// -update it rewrites them and keeps the other figures' lines.
func checkGolden(t *testing.T, fig string, got []string) {
	t.Helper()
	path := filepath.Join("testdata", "figures.golden")
	data, err := os.ReadFile(path)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want, others []string
	for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if strings.HasPrefix(l, fig+" ") {
			want = append(want, l)
		} else if l != "" {
			others = append(others, l)
		}
	}
	slices.Sort(got)
	if *update {
		all := append(others, got...)
		slices.Sort(all)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(all, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s cells changed (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s",
			fig, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestCalibrateBudgetsSeparates(t *testing.T) {
	h := quickHarness(t)
	a, b, err := h.CalibrateBudgets(6)
	if err != nil {
		t.Fatal(err)
	}
	if a <= 0 || b <= a {
		t.Errorf("budgets A=%d B=%d; want 0 < A < B", a, b)
	}
	// Cluster A's per-slot allowance must admit every "pass" query and
	// reject every OOM-set query.
	allowA := a / 6
	for name, size := range h.hashMax {
		if mapjoinOOMSet[name] && size <= allowA {
			t.Errorf("%s (OOM set, %d bytes) fits in cluster A allowance %d", name, size, allowA)
		}
		if !mapjoinOOMSet[name] && size > allowA {
			t.Errorf("%s (pass set, %d bytes) exceeds cluster A allowance %d", name, size, allowA)
		}
		if size > b/6 {
			t.Errorf("%s (%d bytes) exceeds cluster B allowance %d", name, size, b/6)
		}
	}
	for name, sum := range h.hashSum {
		if sum > a || sum > b {
			t.Errorf("%s: Clydesdale resident tables (%d) exceed a budget (A=%d B=%d)", name, sum, a, b)
		}
	}
}

// runFigureShape runs Figure 7 or 8 and checks what both share: Clydesdale's
// cells against the golden, both Hive plans costing more than Clydesdale on
// every query, the DNF set, and the average above minAverage. It returns the
// figure and its printed table.
func runFigureShape(t *testing.T, profile string, dnf map[string]bool, minAverage float64) (*FigureResult, string) {
	h := quickHarness(t)
	var buf bytes.Buffer
	fig, err := h.RunFigure(profile, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 13 {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	name := strings.ReplaceAll(fig.Figure, " ", "")
	var cells []string
	for _, r := range fig.Rows {
		cells = append(cells, fmt.Sprintf("%s %s clydesdale %v", name, r.Query, r.Clydesdale.NodeSeconds))
		if r.SpeedupRepartition() <= 1 {
			t.Errorf("%s: repartition (%v) costs no more than Clydesdale (%v)", r.Query, r.HiveRepartition.NodeSeconds, r.Clydesdale.NodeSeconds)
		}
		if !r.MapjoinOOM && r.SpeedupMapjoin() <= 1 {
			t.Errorf("%s: mapjoin (%v) costs no more than Clydesdale (%v)", r.Query, r.HiveMapjoin.NodeSeconds, r.Clydesdale.NodeSeconds)
		}
		if dnf[r.Query] != r.MapjoinOOM {
			t.Errorf("%s: MapjoinOOM = %v, want %v", r.Query, r.MapjoinOOM, dnf[r.Query])
		}
	}
	checkGolden(t, name, cells)
	if avg := fig.AverageSpeedup(); avg <= minAverage {
		t.Errorf("average speedup %.2fx; want above %.1fx", avg, minAverage)
	}
	if !strings.Contains(buf.String(), fig.Figure) || !strings.Contains(buf.String(), "node-s") {
		t.Error("printed output incomplete")
	}
	return fig, buf.String()
}

func TestFigure7ShapeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	// The paper's OOM set is exactly the mapjoin DNFs on cluster A.
	_, out := runFigureShape(t, "A", mapjoinOOMSet, minAverageA)
	if !strings.Contains(out, "DNF(OOM)") {
		t.Error("printed output lacks the DNF cells")
	}
}

func TestFigure8ShapeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	// Cluster B's memory fits every mapjoin: no DNF.
	fig, _ := runFigureShape(t, "B", nil, minAverageB)
	if avg := fig.AverageSpeedup(); avg >= minAverageA {
		t.Errorf("cluster B average %.2fx reaches cluster A's floor %.1fx; the speedup should shrink on B", avg, minAverageA)
	}
}

func TestFigure9ShapeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	h := quickHarness(t)
	var buf bytes.Buffer
	abl, err := h.RunFigure9(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(abl.Rows) != 13 {
		t.Fatalf("rows = %d", len(abl.Rows))
	}
	var cells []string
	for _, r := range abl.Rows {
		for _, c := range []struct {
			name string
			cost Cost
		}{{"baseline", r.Baseline}, {"-blockiter", r.NoBlockIteration}, {"-columnar", r.NoColumnar},
			{"-multithread", r.NoMultiThreading}, {"-combining", r.NoInMapperCombining}} {
			cells = append(cells, fmt.Sprintf("Figure9 %s %s %v", r.Query, c.name, c.cost.NodeSeconds))
		}
		// Block iteration and in-mapper combining save host CPU, not
		// charged I/O or task overhead: their node-seconds are the
		// baseline's exactly. Columnar storage and multi-threading save
		// charges on every query.
		if s := r.Slowdown(r.NoBlockIteration); s != 1 {
			t.Errorf("%s: -blockiter %.4fx, want exactly 1", r.Query, s)
		}
		if s := r.Slowdown(r.NoInMapperCombining); s != 1 {
			t.Errorf("%s: -combining %.4fx, want exactly 1", r.Query, s)
		}
		if s := r.Slowdown(r.NoColumnar); s <= 1 {
			t.Errorf("%s: -columnar %.4fx, want above 1", r.Query, s)
		}
		if s := r.Slowdown(r.NoMultiThreading); s <= 1 {
			t.Errorf("%s: -multithread %.4fx, want above 1", r.Query, s)
		}
	}
	checkGolden(t, "Figure9", cells)
	if !strings.Contains(buf.String(), "Figure 9") {
		t.Error("printed output incomplete")
	}
}

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	h := quickHarness(t)
	var buf bytes.Buffer
	res, err := h.RunTable1("A", 4, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteMBps <= 0 || res.ReadMBps <= 0 {
		t.Fatalf("throughputs: write %.1f read %.1f", res.WriteMBps, res.ReadMBps)
	}
	// §6.6: HDFS delivers only a fraction of raw disk bandwidth.
	if res.ReadMBps >= res.RawDiskMBps {
		t.Errorf("HDFS read %.1f MB/s >= raw disk %.1f MB/s", res.ReadMBps, res.RawDiskMBps)
	}
	if res.ReadMBps >= res.AggRawMBps {
		t.Errorf("HDFS read %.1f MB/s >= node aggregate %.1f MB/s", res.ReadMBps, res.AggRawMBps)
	}
	// A write pays the replication pipeline on top.
	if res.WriteMBps >= res.ReadMBps {
		t.Errorf("HDFS write %.1f MB/s >= read %.1f MB/s", res.WriteMBps, res.ReadMBps)
	}
	if !strings.Contains(buf.String(), "Table 1") {
		t.Error("printed output incomplete")
	}
}

func TestBreakdownQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	h := quickHarness(t)
	var buf bytes.Buffer
	b, err := h.RunBreakdown("Q2.1", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.MapjoinOOM {
		t.Fatal("Q2.1 mapjoin should complete on cluster A")
	}
	// §6.3's structural facts.
	if len(b.MapjoinStages) != 5 { // 3 joins + groupby + orderby
		t.Errorf("mapjoin stages = %d, want 5", len(b.MapjoinStages))
	}
	if b.MapjoinHashLoads <= b.ClyMapTasks {
		t.Errorf("mapjoin hash loads (%d) should exceed Clydesdale's builds (%d)",
			b.MapjoinHashLoads, b.ClyMapTasks)
	}
	if b.MapjoinTotal.NodeSeconds <= b.ClyTotal.NodeSeconds {
		t.Errorf("mapjoin node-seconds (%v) should exceed Clydesdale's (%v)",
			b.MapjoinTotal.NodeSeconds, b.ClyTotal.NodeSeconds)
	}
	if !strings.Contains(buf.String(), "§6.3 breakdown") {
		t.Error("printed output incomplete")
	}
}

func TestSetupClusterUnknownProfile(t *testing.T) {
	h := quickHarness(t)
	if _, err := h.SetupCluster("C"); err == nil {
		t.Error("expected error for unknown profile")
	}
}
