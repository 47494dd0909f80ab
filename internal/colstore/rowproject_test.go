package colstore_test

import (
	"math/rand"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/records"
	"clydesdale/internal/ssb"
)

// readRows reads every split of in, cloning each row.
func readRows(t *testing.T, c *cluster.Cluster, fs *hdfs.FileSystem, in mr.InputFormat) []records.Record {
	t.Helper()
	jctx := &mr.JobContext{FS: fs, Cluster: c, Counters: mr.NewCounters()}
	splits, err := in.Splits(jctx)
	if err != nil {
		t.Fatal(err)
	}
	var rows []records.Record
	for _, s := range splits {
		r, err := in.Open(s, mr.NewTestTaskContext(jctx, c.Nodes()[0]))
		if err != nil {
			t.Fatal(err)
		}
		for {
			_, row, ok, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			rows = append(rows, row.Clone())
		}
		r.Close()
	}
	return rows
}

// TestRowInputColumnsMatchFullRead: over every SSB dimension, a RowInput
// given Columns reads what a full read projected to those columns holds, row
// by row, whether Columns is one column, a shuffled subset or every column.
func TestRowInputColumnsMatchFullRead(t *testing.T) {
	c := cluster.New(cluster.Testing(2))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 14, Seed: 7})
	gen := ssb.NewBenchGenerator(0.05, 1, 11)
	rng := rand.New(rand.NewSource(5))
	for _, table := range []string{ssb.TableCustomer, ssb.TableSupplier, ssb.TablePart, ssb.TableDate} {
		schema, dir := ssb.SchemaOf(table), "/dims/"+table
		n, err := colstore.WriteRowTable(fs, dir, schema, func(emit func(records.Record) error) error { return gen.Each(table, emit) })
		if err != nil {
			t.Fatal(err)
		}
		full := readRows(t, c, fs, &colstore.RowInput{Dir: dir})
		if int64(len(full)) != n {
			t.Fatalf("%s: full read gave %d rows of %d", table, len(full), n)
		}
		names := schema.Names()
		subset := rng.Perm(len(names))[:1+rng.Intn(len(names))]
		projections := [][]string{{names[rng.Intn(len(names))]}, names}
		var shuffled []string
		for _, i := range subset {
			shuffled = append(shuffled, names[i])
		}
		projections = append(projections, shuffled)
		for _, cols := range projections {
			want, err := schema.Project(cols...)
			if err != nil {
				t.Fatal(err)
			}
			got := readRows(t, c, fs, &colstore.RowInput{Dir: dir, Columns: cols})
			if len(got) != len(full) {
				t.Fatalf("%s %v: %d rows, want %d", table, cols, len(got), len(full))
			}
			for i, row := range got {
				if !row.Schema().Equal(want) {
					t.Fatalf("%s %v: schema %v, want %v", table, cols, row.Schema(), want)
				}
				for j, col := range cols {
					if row.At(j) != full[i].Get(col) {
						t.Fatalf("%s %v: row %d %s = %v, want %v", table, cols, i, col, row.At(j), full[i].Get(col))
					}
				}
			}
		}
	}
}
