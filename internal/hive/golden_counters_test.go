package hive_test

import (
	"context"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"

	"clydesdale/internal/hive"
	"clydesdale/internal/ssb"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/run_counters.golden from this run")

// TestRunCountersGolden pins the baseline's work: one query per flight under
// Repartition and Q2.1 under MapJoin must produce the counters checked in
// under testdata, every mr and hive counter but the wall-clock *_NANOS ones.
// The file was captured before the record path of mr was rewritten (one
// map-output buffer per task, a merge at the reducer, per-attempt tallies),
// so a change that moves a record, a byte or a task shows up here even when
// every answer still matches the reference.
func TestRunCountersGolden(t *testing.T) {
	// One worker: with several, which nodes the scheduler hands tasks to
	// (and so the locality and remote-shuffle counters) varies run to run.
	e := newEnv(t, 1, 0.001)
	var b strings.Builder
	for _, c := range []struct {
		strategy hive.JoinStrategy
		queries  []string
	}{
		{hive.Repartition, []string{"Q1.1", "Q2.1", "Q3.1", "Q4.1"}},
		{hive.MapJoin, []string{"Q2.1"}},
	} {
		eng := hive.New(e.mr, e.lay.RCCatalog(), hive.Options{Strategy: c.strategy, Reducers: 3})
		for _, name := range c.queries {
			q, err := ssb.QueryByName(name)
			if err != nil {
				t.Fatal(err)
			}
			_, rep, err := eng.Execute(context.Background(), q)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.strategy, name, err)
			}
			fmt.Fprintf(&b, "%s/%s", c.strategy, name)
			for _, ctr := range slices.Sorted(maps.Keys(rep.Counters.Snapshot())) {
				if strings.HasSuffix(ctr, "_NANOS") {
					continue
				}
				fmt.Fprintf(&b, " %s=%d", ctr, rep.Counters.Get(ctr))
			}
			b.WriteByte('\n')
		}
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
		t.Errorf("hive counters differ from %s (regenerate with -update only for an intended change)\ngot:\n%swant:\n%s", path, got, want)
	}
}
