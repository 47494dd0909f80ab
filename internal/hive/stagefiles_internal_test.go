package hive

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/core"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/ssb"
)

// TestStageFilesGolden pins the bytes every repartition join stage writes:
// the SHA-256 of each file under each stage's output directory, for one
// query per flight, on TestRunCountersGolden's one-worker cluster and
// BenchmarkRepartitionStage's data (enough fact rows that every stage writes
// rows). The counters golden holds how many rows and bytes a stage moves; this one
// holds which, so a mapper or reducer that moves a field's bytes differently
// shows up here even when the counts and every answer still match.
func TestStageFilesGolden(t *testing.T) {
	c := cluster.New(cluster.Testing(1))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 31})
	lay, err := ssb.Load(fs, ssb.NewBenchGenerator(0.01, 20000, 42), "/ssb", ssb.LoadOptions{RCGroupRows: 2000})
	if err != nil {
		t.Fatal(err)
	}
	e := New(mr.NewEngine(c, fs, mr.Options{}), lay.RCCatalog(), Options{Reducers: 3})
	var b strings.Builder
	for _, name := range []string{"Q1.1", "Q2.1", "Q3.1", "Q4.1"} {
		q, err := ssb.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		l, err := core.LogicalOf(q, e.cat)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := e.lower(l)
		if err != nil {
			t.Fatal(err)
		}
		in := stageInput{dir: e.cat.FactDir, schema: sp.factRead, isFact: true}
		for i := range sp.joins {
			st := &sp.joins[i]
			if _, err := e.runRepartitionStage(context.Background(), sp, st, in); err != nil {
				t.Fatalf("%s stage %d: %v", name, i+1, err)
			}
			for _, path := range fs.List(st.outDir + "/") {
				data, err := fs.ReadAll(path, "")
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%s %s %x\n", name, strings.TrimPrefix(path, sp.tmpDir+"/"), sha256.Sum256(data))
			}
			in = stageInput{dir: st.outDir, schema: st.outSchema}
		}
		e.cleanup(sp)
	}
	const path = "testdata/stage_files.golden"
	// -update is golden_counters_test.go's flag; this test binary holds both.
	if f := flag.Lookup("update"); f != nil && f.Value.String() == "true" {
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
		t.Errorf("stage files differ from %s (regenerate with -update only for an intended change)\ngot:\n%swant:\n%s", path, got, want)
	}
}
