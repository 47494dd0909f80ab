package main

import (
	"os"
	"path/filepath"
	"testing"

	"clydesdale/internal/records"
	"clydesdale/internal/results"
)

// smokeConfig is a quarter-second window over datasets a sixtieth the size:
// enough to drive every code path of the harness, oracle included, in a
// couple of seconds per run.
func smokeConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{workload: workload, seed: 5, seconds: 0.25, trace: trace, shrink: 60, outDir: t.TempDir()}
}

// TestSmoke runs every workload traced and untraced. It asserts on answers,
// on the names emitted and on counts that hold by construction; never on a
// time, because tier-1 runs this beside every other package's tests.
func TestSmoke(t *testing.T) {
	for _, w := range workloadDefs {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t, w.Name, trace)
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rep.Correct {
				t.Errorf("%s trace=%v: wrong answers", w.Name, trace)
			}
			if rep.Attempted < 1 {
				t.Errorf("%s trace=%v: nothing attempted", w.Name, trace)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics on the result line, catalogue lists %d", w.Name, trace, len(rep.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := rep.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: %s missing", w.Name, trace, d.Name)
				} else if v.Unit != d.Unit {
					t.Errorf("%s trace=%v: %s has unit %q, catalogue says %q", w.Name, trace, d.Name, v.Unit, d.Unit)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, v.Value)
				}
			}
			if rep.value("bench.golden_checked") < 1 {
				t.Errorf("%s trace=%v: the oracle checked nothing", w.Name, trace)
			}
			base := filepath.Join(cfg.outDir, w.Name+"-seed5-trace0.json")
			if trace {
				base = filepath.Join(cfg.outDir, w.Name+"-seed5-trace1.spans.json")
			}
			if _, err := os.Stat(base); err != nil {
				t.Errorf("%s trace=%v: %v", w.Name, trace, err)
			}
			if trace && w.Name == "serve_mix" {
				// By construction of the stream (TestStreamComposition).
				if f := rep.Metrics["serve.result_hit_frac"].Value; f < 0.6 || f > 0.75 {
					t.Errorf("serve_mix: result_hit_frac = %.3f, outside 0.6-0.75", f)
				}
			}
		}
	}
}

// TestWrongAnswerFailsTheRun flips one stored answer between the window and
// the verification: the run must report it.
func TestWrongAnswerFailsTheRun(t *testing.T) {
	cfg := smokeConfig(t, "ssb_star", false)
	cfg.tamper = func(w workload) {
		kept := w.(*ssbStar).kept
		rs := kept[len(kept)-1].rs
		last := rs.Schema.Len() - 1 // the aggregate
		flipped := &results.ResultSet{Schema: rs.Schema, Rows: append([]records.Record(nil), rs.Rows...)}
		flipped.Rows[0] = flipped.Rows[0].Clone().Set(last, records.Float(flipped.Rows[0].At(last).Float64()+1))
		kept[len(kept)-1].rs = flipped
	}
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed != 1 {
		t.Errorf("a flipped answer gave correct=%v failed=%d, want false and 1", rep.Correct, rep.Failed)
	}
}

func TestTooManyLoadThreadsIsRefused(t *testing.T) {
	if err := checkLoadThreads(1 << 20); err == nil {
		t.Error("a workload with a million load threads was not refused")
	}
	if err := checkLoadThreads(1); err != nil {
		t.Error(err)
	}
}
