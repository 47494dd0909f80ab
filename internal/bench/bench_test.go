package bench

import (
	"bytes"
	"strings"
	"testing"
)

// quickConfig is a small, fast configuration for unit-testing the harness.
// The fact table must dominate the dimensions (as in the paper) and the
// modeled per-task overheads must be visible in wall time for the figure
// shapes to emerge.
func quickConfig() Config {
	return Config{
		DimScale:  1,
		FactRows:  60_000,
		Seed:      42,
		TimeScale: 5e-3,
		IOScale:   400,
		Repeats:   1,
		WorkersA:  4,
		WorkersB:  8,
	}
}

func TestCalibrateBudgetsSeparates(t *testing.T) {
	h, err := NewHarness(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
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

func TestFigure7ShapeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	h, err := NewHarness(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fig, err := h.RunFigure("A", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 13 {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	for _, r := range fig.Rows {
		// Clydesdale must beat both Hive plans on every query.
		if r.HiveRepartition <= r.Clydesdale {
			t.Errorf("%s: repartition (%v) not slower than Clydesdale (%v)", r.Query, r.HiveRepartition, r.Clydesdale)
		}
		if !r.MapjoinOOM && r.HiveMapjoin <= r.Clydesdale {
			t.Errorf("%s: mapjoin (%v) not slower than Clydesdale (%v)", r.Query, r.HiveMapjoin, r.Clydesdale)
		}
		// The paper's OOM set must be exactly the mapjoin DNFs on cluster A.
		if mapjoinOOMSet[r.Query] != r.MapjoinOOM {
			t.Errorf("%s: MapjoinOOM = %v, want %v", r.Query, r.MapjoinOOM, mapjoinOOMSet[r.Query])
		}
	}
	if avg := fig.AverageSpeedup(); avg < 2 {
		t.Errorf("average speedup %.2fx; expected a clear Clydesdale win", avg)
	}
	if !strings.Contains(buf.String(), "Figure 7") || !strings.Contains(buf.String(), "DNF(OOM)") {
		t.Error("printed output incomplete")
	}
}

func TestFigure8MapjoinCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	cfg := quickConfig()
	cfg.FactRows = 6_000
	cfg.TimeScale = -1 // memory decides the outcome, not time: no sleeping
	h, err := NewHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fig, err := h.RunFigure("B", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fig.Rows {
		if r.MapjoinOOM {
			t.Errorf("%s: mapjoin OOMed on cluster B (more memory per node)", r.Query)
		}
	}
}

func TestFigure9ShapeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	cfg := quickConfig()
	cfg.Repeats = 3 // medians keep the small block-iteration effect stable
	h, err := NewHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	abl, err := h.RunFigure9(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(abl.Rows) != 13 {
		t.Fatalf("rows = %d", len(abl.Rows))
	}
	nb, nc, nm := abl.Average()
	// Block iteration's effect is small in Go (the per-record overhead it
	// amortizes is much larger in Hadoop); require it not to be an actual
	// speedup beyond timing noise. The other two must cost clearly.
	if nb < 0.95 {
		t.Errorf("disabling block iteration sped things up on average (%.2fx)", nb)
	}
	if nc <= 1.05 {
		t.Errorf("disabling columnar storage cost nothing (%.2fx)", nc)
	}
	if nm <= 1.05 {
		t.Errorf("disabling multi-threading cost nothing (%.2fx)", nm)
	}
	if !strings.Contains(buf.String(), "Figure 9") {
		t.Error("printed output incomplete")
	}
}

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	h, err := NewHarness(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
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
	if !strings.Contains(buf.String(), "Table 1") {
		t.Error("printed output incomplete")
	}
}

func TestBreakdownQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	h, err := NewHarness(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
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
	if b.MapjoinTotal <= b.ClyTotal {
		t.Error("mapjoin should be slower than Clydesdale")
	}
	if !strings.Contains(buf.String(), "§6.3 breakdown") {
		t.Error("printed output incomplete")
	}
}

func TestSetupClusterUnknownProfile(t *testing.T) {
	h, err := NewHarness(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.SetupCluster("C"); err == nil {
		t.Error("expected error for unknown profile")
	}
}
