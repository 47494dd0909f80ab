package core_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/mr"
	"clydesdale/internal/ssb"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/run_counters.golden from this run")

// goldenCounters are the work counters Run must reproduce exactly: how many
// tables were built, how many fact rows reached the probe and survived it,
// where every other fact row went, and how many map tasks did it.
var goldenCounters = []string{
	core.CtrHashTablesBuilt, core.CtrProbeRows, core.CtrProbeEmits,
	colstore.CtrRowsScanned, colstore.CtrRowsPruned, colstore.CtrRowsLateSkipped, colstore.CtrRowsBloomSkipped,
	mr.CtrMapTasks,
}

// TestRunCountersGolden pins the star path's work: Run on all 13 SSB
// queries must produce the counters checked in under testdata, which were
// captured before the executors were merged onto one runner. A change that
// alters what the star job scans, builds or probes shows up here even when
// every answer still matches the reference.
func TestRunCountersGolden(t *testing.T) {
	// One worker: with several, which nodes the scheduler hands tasks to
	// (and so how many nodes build tables) varies from run to run.
	e := newEnv(t, 1, 0.002)
	eng := e.engine(core.Options{})
	var b strings.Builder
	for _, q := range ssb.Queries() {
		_, rep, err := eng.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		b.WriteString(q.Name)
		for _, name := range goldenCounters {
			fmt.Fprintf(&b, " %s=%d", name, rep.Job.Counters.Get(name))
		}
		b.WriteByte('\n')
	}
	const path = "testdata/run_counters.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("Run counters differ from %s (regenerate with -update only for an intended change)\ngot:\n%swant:\n%s", path, got, want)
	}
}
