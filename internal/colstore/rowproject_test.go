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

// spanReader is what colstore's RC and row readers add to mr.RecordReader.
type spanReader interface {
	NextSpans() ([][]byte, bool, error)
}

// TestSpansDecodeToNext: over every SSB table as a row file and as an
// RCFile, read whole, as one column and as a shuffled subset of columns,
// each span NextSpans returns is exactly the encoding (records.AppendValue)
// of the value Next returns for the same field of the same row, and both
// reads end together.
func TestSpansDecodeToNext(t *testing.T) {
	c := cluster.New(cluster.Testing(2))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 14, Seed: 7})
	jctx := &mr.JobContext{FS: fs, Cluster: c, Counters: mr.NewCounters()}
	gen := ssb.NewBenchGenerator(0.05, 2000, 11)
	rng := rand.New(rand.NewSource(9))
	for _, table := range []string{ssb.TableLineorder, ssb.TableCustomer, ssb.TableSupplier, ssb.TablePart, ssb.TableDate} {
		schema := ssb.SchemaOf(table)
		rows := func(emit func(records.Record) error) error { return gen.Each(table, emit) }
		if _, err := colstore.WriteRowTable(fs, "/rows/"+table, schema, rows); err != nil {
			t.Fatal(err)
		}
		if _, err := colstore.WriteRCTable(fs, "/rc/"+table, schema, 100, rows); err != nil {
			t.Fatal(err)
		}
		names := schema.Names()
		var shuffled []string
		for _, i := range rng.Perm(len(names))[:1+rng.Intn(len(names))] {
			shuffled = append(shuffled, names[i])
		}
		for _, cols := range [][]string{nil, {names[rng.Intn(len(names))]}, shuffled} {
			for _, in := range []mr.InputFormat{
				&colstore.RowInput{Dir: "/rows/" + table, Columns: cols},
				&colstore.RCInput{Dir: "/rc/" + table, Columns: cols},
			} {
				splits, err := in.Splits(jctx)
				if err != nil {
					t.Fatal(err)
				}
				rows := 0
				for _, s := range splits {
					decoded, err := in.Open(s, mr.NewTestTaskContext(jctx, c.Nodes()[0]))
					if err != nil {
						t.Fatal(err)
					}
					spanned, err := in.Open(s, mr.NewTestTaskContext(jctx, c.Nodes()[0]))
					if err != nil {
						t.Fatal(err)
					}
					for ; ; rows++ {
						_, row, ok, err := decoded.Next()
						spans, sok, serr := spanned.(spanReader).NextSpans()
						if err != nil || serr != nil {
							t.Fatalf("%T %s %v: Next %v, NextSpans %v", in, table, cols, err, serr)
						}
						if ok != sok {
							t.Fatalf("%T %s %v row %d: Next ok %v, NextSpans ok %v", in, table, cols, rows, ok, sok)
						}
						if !ok {
							break
						}
						if len(spans) != row.Len() {
							t.Fatalf("%T %s %v row %d: %d spans for %d values", in, table, cols, rows, len(spans), row.Len())
						}
						for i, span := range spans {
							if want := records.AppendValue(nil, row.At(i)); string(span) != string(want) {
								t.Fatalf("%T %s %v row %d field %d: span %x, want %x (%v)", in, table, cols, rows, i, span, want, row.At(i))
							}
						}
					}
					decoded.Close()
					spanned.Close()
				}
				if rows == 0 {
					t.Fatalf("%T %s %v: no rows", in, table, cols)
				}
			}
		}
	}
}
