package colstore_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/records"
	"clydesdale/internal/ssb"
)

var updateCIFGolden = flag.Bool("update", false, "rewrite testdata/cif_files.golden from this run")

// TestCIFFilesGolden pins the bytes every CIF writer stores: the SHA-256 of
// every file after an SSB load of all five tables, three roll-ins into the
// fact table (one of them into several partitions) and a compaction that
// re-clusters the small partitions by lo_orderdate. The load, the roll-in
// and the compaction all encode through CIFWriter, so a change to the
// dictionary builder, the frame-of-reference packer, the zone maps or the
// compaction's row order shows here as a changed line. Rewrite it with
// go test ./internal/colstore -run TestCIFFilesGolden -update, and only for
// an intended change of format.
func TestCIFFilesGolden(t *testing.T) {
	c := cluster.New(cluster.Testing(2))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 20, Seed: 23})
	gen := ssb.NewGenerator(0.002, 5)
	for _, table := range ssbTables {
		if _, err := colstore.WriteCIFTable(fs, "/g/"+table, ssb.SchemaOf(table), 2000, func(emit func(records.Record) error) error {
			return gen.Each(table, emit)
		}); err != nil {
			t.Fatal(err)
		}
	}
	fact := "/g/" + ssb.TableLineorder
	reg := colstore.NewSnapshots(fs)
	for _, batch := range []struct{ lo, n int64 }{{0, 700}, {3000, 1500}, {9000, 300}} {
		if _, _, err := reg.RollIn(fact, 512, func(emit func(records.Record) error) error {
			for i := batch.lo; i < batch.lo+batch.n; i++ {
				if err := emit(gen.Lineorder(i)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := colstore.Compact(reg, fact, colstore.CompactOptions{MinRows: 1000, TargetRows: 1024, ClusterBy: "lo_orderdate"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Retired) < 2 || res.Rows != 2500 {
		t.Fatalf("compaction retired %d partitions, %d rows; want the six roll-in partitions' 2500", len(res.Retired), res.Rows)
	}

	var b strings.Builder
	for _, path := range fs.List("/g/") {
		data, err := fs.ReadAll(path, "")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%x %7d %s\n", sha256.Sum256(data), len(data), path)
	}
	const golden = "testdata/cif_files.golden"
	if *updateCIFGolden {
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
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
				break
			}
		}
		t.Fatalf("the stored CIF files differ from %s (%d lines, want %d)", golden, len(gl), len(wl))
	}
}
