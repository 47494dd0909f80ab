package hive

import (
	"context"
	"strings"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/core"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/records"
	"clydesdale/internal/ssb"
)

// joinJob runs the repartition reducer over hand-built tagged pairs, one
// split per entry of sides: the identity map, so a split's position among
// the splits is all that orders a key's values.
func joinJob(out *mr.MemoryOutput, outSchema *records.Schema, numAux int, sides ...[]mr.KV) *mr.Job {
	in := &mr.MemoryInput{}
	for _, pairs := range sides {
		in.SplitsList = append(in.SplitsList, &mr.MemorySplit{Pairs: pairs})
	}
	return &mr.Job{
		Name:   "hand-built-repartition",
		Input:  in,
		Output: out,
		NewMapper: func() mr.Mapper {
			return mr.MapperFunc(func(k, v records.Record, c mr.Collector) error { return c.Collect(k, v) })
		},
		NewReducer:     func() mr.Reducer { return newRepartitionReducer(outSchema, numAux) },
		NumReduceTasks: 2,
		KeySchema:      joinKeySchema,
	}
}

// TestRepartitionReducerStreamsTheBigSide: dimension rows first, the reducer
// keeps only those and joins each big-side row as it arrives; a dimension
// row behind a big-side row of its key is refused, because the rows already
// streamed past it would be missing from the answer.
func TestRepartitionReducerStreamsTheBigSide(t *testing.T) {
	outSchema := records.NewSchema(records.F("fact", records.KindInt64), records.F("aux", records.KindString))
	key := func(k int64) records.Record { return records.Make(joinKeySchema, records.Int(k)) }
	two := anonSchema(2)
	dim := func(k int64, aux string) mr.KV {
		return mr.KV{Key: key(k), Value: records.Make(two, records.Int(tagDim), records.Str(aux))}
	}
	fact := func(k, f int64) mr.KV {
		return mr.KV{Key: key(k), Value: records.Make(two, records.Int(tagFact), records.Int(f))}
	}
	dims := []mr.KV{dim(1, "one"), dim(2, "two"), dim(2, "deux"), dim(3, "unmatched")}
	facts := []mr.KV{fact(1, 10), fact(2, 20), fact(1, 11), fact(9, 90)}
	e := mr.NewEngine(cluster.New(cluster.Testing(2)), nil, mr.Options{})

	out := &mr.MemoryOutput{}
	if _, err := e.Submit(context.Background(), joinJob(out, outSchema, 1, dims, facts)); err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, kv := range out.Pairs() {
		got[kv.Value.String()]++
	}
	for _, want := range []string{"[10 one]", "[11 one]", "[20 two]", "[20 deux]"} {
		if got[want] != 1 {
			t.Errorf("joined rows %v: want %s once", got, want)
		}
	}
	if len(got) != 4 {
		t.Errorf("joined rows %v: want four", got)
	}

	// The big side's split ahead of the dimension's: the order is broken.
	_, err := e.Submit(context.Background(), joinJob(&mr.MemoryOutput{}, outSchema, 1, facts, dims))
	if err == nil || !strings.Contains(err.Error(), "follows a big-side row") {
		t.Errorf("big side first: got %v, want the reducer's refusal", err)
	}
}

// TestRepartitionReducerRefusesWrongWidth: the reducer moves values as
// bytes, so it checks each value's field count against its side's width, a
// dimension row's and a big-side row's, and refuses a value of another.
func TestRepartitionReducerRefusesWrongWidth(t *testing.T) {
	outSchema := records.NewSchema(records.F("fact", records.KindInt64), records.F("aux", records.KindString))
	key := records.Make(joinKeySchema, records.Int(1))
	tagged := func(tag int64, vals ...records.Value) mr.KV {
		return mr.KV{Key: key, Value: records.Make(anonSchema(1+len(vals)), append([]records.Value{records.Int(tag)}, vals...)...)}
	}
	dim, fact := tagged(tagDim, records.Str("one")), tagged(tagFact, records.Int(10))
	e := mr.NewEngine(cluster.New(cluster.Testing(2)), nil, mr.Options{})
	for _, c := range []struct {
		name       string
		dims, bigs []mr.KV
		want       string
	}{
		{"wide dimension row", []mr.KV{tagged(tagDim, records.Str("one"), records.Str("extra"))}, []mr.KV{fact}, "a dimension row of key [1] has 3 values, want 2"},
		{"narrow big-side row", []mr.KV{dim}, []mr.KV{tagged(tagFact)}, "a big-side row of key [1] has 1 values, want 2"},
	} {
		_, err := e.Submit(context.Background(), joinJob(&mr.MemoryOutput{}, outSchema, 1, c.dims, c.bigs))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want %q", c.name, err, c.want)
		}
	}
	out := &mr.MemoryOutput{}
	if _, err := e.Submit(context.Background(), joinJob(out, outSchema, 1, []mr.KV{dim}, []mr.KV{fact})); err != nil {
		t.Fatal(err)
	}
	if rows := out.Pairs(); len(rows) != 1 || rows[0].Value.String() != "[10 one]" {
		t.Errorf("the well-formed pair joined to %v, want [10 one]", rows)
	}
}

// BenchmarkRepartitionStage is one repartition join job, Q2.1's first (the
// 20 000-row fact table against part, filtered to one category), from RCFile
// and row-file decode through tag, shuffle and merge to the joined rows
// written back: the unit the Hive baseline repeats per dimension.
func BenchmarkRepartitionStage(b *testing.B) {
	c := cluster.New(cluster.Testing(4))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 18, Seed: 31})
	lay, err := ssb.Load(fs, ssb.NewBenchGenerator(0.01, 20000, 42), "/ssb", ssb.LoadOptions{RCGroupRows: 2000})
	if err != nil {
		b.Fatal(err)
	}
	e := New(mr.NewEngine(c, fs, mr.Options{}), lay.RCCatalog(), Options{})
	q, err := ssb.QueryByName("Q2.1")
	if err != nil {
		b.Fatal(err)
	}
	l, err := core.LogicalOf(q, lay.RCCatalog())
	if err != nil {
		b.Fatal(err)
	}
	sp, err := e.lower(l)
	if err != nil {
		b.Fatal(err)
	}
	in := stageInput{dir: e.cat.FactDir, schema: sp.factRead, isFact: true}
	b.ReportAllocs()
	for b.Loop() {
		res, err := e.runRepartitionStage(context.Background(), sp, &sp.joins[0], in)
		if err != nil {
			b.Fatal(err)
		}
		if res.Counters.Get(mr.CtrReduceOutput) == 0 {
			b.Fatal("the stage joined nothing")
		}
		fs.DeletePrefix(sp.joins[0].outDir)
	}
}
