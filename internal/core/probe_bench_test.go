package core

import (
	"fmt"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/expr"
	"clydesdale/internal/mr"
	"clydesdale/internal/records"
)

// benchDimEntries synthesizes dimension entries shaped like the SSB
// dimensions: non-dense int64 keys with two aux values (a string and an
// int).
func benchDimEntries(n int) (keys []int64, aux [][]records.Value) {
	keys = make([]int64, n)
	aux = make([][]records.Value, n)
	for i := 0; i < n; i++ {
		// Spread keys the way datekey/custkey values are spread: non-dense,
		// including values far above n.
		keys[i] = int64(i)*7919 + 3
		aux[i] = []records.Value{
			records.Str("AMERICA"),
			records.Int(int64(i % 7)),
		}
	}
	return keys, aux
}

// newBenchTable builds a DimHashTable directly from key/aux pairs, bypassing
// the file-system decode path, so the benchmark isolates the table itself.
func newBenchTable(keys []int64, aux [][]records.Value) *DimHashTable {
	h := newDimHashTable("bench", len(aux[0]), len(keys))
	h.arena = make([]records.Value, 0, len(keys)*len(aux[0]))
	for i, k := range keys {
		h.insert(k, aux[i])
	}
	h.finalize()
	return h
}

// benchProbes returns a probe stream of ~50% hits and ~50% misses.
func benchProbes(keys []int64) []int64 {
	probes := make([]int64, len(keys)*2)
	for i, k := range keys {
		probes[2*i] = k
		probes[2*i+1] = k + 1 // never a valid key (keys are ≡3 mod 7919)
	}
	return probes
}

// BenchmarkDimTableProbe measures the probe hot loop: a mix of hits and
// misses against a read-only dimension table, touching the aux values the
// way probeBlocks does. The gomap variants probe the pre-change
// map[int64][]Value layout for comparison; sizes bracket the SSB dimension
// cardinalities.
func BenchmarkDimTableProbe(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16} {
		keys, aux := benchDimEntries(n)
		probes := benchProbes(keys)

		b.Run(fmt.Sprintf("open/n=%d", n), func(b *testing.B) {
			h := newBenchTable(keys, aux)
			b.ReportAllocs()
			b.ResetTimer()
			var hits int64
			for i := 0; i < b.N; i++ {
				if av, ok := h.Probe(probes[i%len(probes)]); ok {
					hits += av[1].Int64()
				}
			}
			benchSink = hits
		})

		b.Run(fmt.Sprintf("gomap/n=%d", n), func(b *testing.B) {
			m := make(map[int64][]records.Value, n)
			for i, k := range keys {
				av := make([]records.Value, len(aux[i]))
				copy(av, aux[i])
				m[k] = av
			}
			b.ReportAllocs()
			b.ResetTimer()
			var hits int64
			for i := 0; i < b.N; i++ {
				if av, ok := m[probes[i%len(probes)]]; ok {
					hits += av[1].Int64()
				}
			}
			benchSink = hits
		})

		b.Run(fmt.Sprintf("shared-dict/n=%d", n), func(b *testing.B) {
			benchSharedDictProbe(b, keys, aux)
		})
	}
}

// benchSharedDictProbe is probeBlocks over one reader of a 4096-row
// partition (four 1024-row blocks) whose FK column carries a 4096-entry
// dictionary, an eighth of it hits. As in a Session, the table outlives the query
// that built its side table, and each reader brings its own *ColumnDict with
// the same contents. The two readers alternate, so every op is a reader the
// scratch has not seen; ns/op is one reader's probe.
func benchSharedDictProbe(b *testing.B, keys []int64, aux [][]records.Value) {
	const rows, blocks = 1024, 4
	h := newBenchTable(keys, aux)
	entries := make([]int64, 4096)
	for c := range entries {
		entries[c] = keys[c%len(keys)]
		if c%8 != 0 {
			entries[c]++ // never a key
		}
	}
	if _, built := h.CodeSideTable(&records.ColumnDict{ID: 1, Ints: entries}); !built {
		b.Fatal("no side table built")
	}
	schema := records.NewSchema(records.F("fk", records.KindInt64))
	var readers [2]*records.RowBlock
	for i := range readers {
		blk := records.NewRowBlock(schema, rows)
		cv := blk.Col(0)
		for r := 0; r < rows; r++ {
			code := uint32(r*4099) % uint32(len(entries))
			cv.Ints = append(cv.Ints, entries[code])
			cv.Codes = append(cv.Codes, code)
		}
		cv.Dict = &records.ColumnDict{ID: 1, Ints: append([]int64(nil), entries...)}
		blk.SetLen(rows)
		readers[i] = blk
	}
	r := &starJoinRunner{
		eng:  &Engine{},
		dims: []DimSpec{{FactFK: "fk", Aux: []string{"name", "n"}}},
		out:  records.NewSchema(records.F("n", records.KindInt64)),
		agg:  expr.Col("fk"),
	}
	ctx := mr.NewTestTaskContext(&mr.JobContext{}, cluster.New(cluster.Testing(1)).Nodes()[0])
	hts := []*DimHashTable{h}
	sc := r.newScratch()
	out := &encodeSink{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.probeBlocks(ctx, &repeatBlock{blk: readers[i%2], left: blocks}, hts, sc, out); err != nil {
			b.Fatal(err)
		}
	}
	benchSink = int64(len(sc.agg.sums))
}

// repeatBlock is a colstore.BlockReader yielding one block left times.
type repeatBlock struct {
	blk  *records.RowBlock
	left int
}

func (r *repeatBlock) NextBlock() (*records.RowBlock, bool, error) {
	if r.left == 0 {
		return nil, false, nil
	}
	r.left--
	return r.blk, true, nil
}

// BenchmarkDimHashBuild measures the table layout alone: row-at-a-time
// insertion of keys and aux values already in memory, against the same
// pre-change Go-map layout. It leaves out everything else a node's §6.3
// build phase does — reading the node-local copy, decoding it, evaluating
// the predicate — which is where that phase's time goes;
// BenchmarkDimBuildFromLocal measures the phase end to end.
func BenchmarkDimHashBuild(b *testing.B) {
	const n = 1 << 14
	keys, aux := benchDimEntries(n)

	b.Run("open", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h := newBenchTable(keys, aux)
			if h.Len() != n {
				b.Fatalf("len = %d, want %d", h.Len(), n)
			}
		}
	})

	b.Run("gomap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := make(map[int64][]records.Value)
			for j, k := range keys {
				av := make([]records.Value, len(aux[j]))
				copy(av, aux[j])
				m[k] = av
			}
			if len(m) != n {
				b.Fatalf("len = %d, want %d", len(m), n)
			}
		}
	})
}

// encodeSink mimics the map collector's cost model: serialize both records
// immediately into a reusable buffer, retain nothing.
type encodeSink struct {
	buf []byte
	n   int
}

func (s *encodeSink) Collect(k, v records.Record) error {
	s.buf = records.AppendRecord(s.buf[:0], k)
	s.buf = records.AppendRecord(s.buf, v)
	s.n++
	return nil
}

// BenchmarkAggregateEmit measures the per-joined-row emit path downstream of
// a successful probe — the Figure 4 map-side aggregation hand-off. Three
// variants:
//
//   - inmapper: the default path; the group key is encoded into a scratch
//     buffer and the measure folds into the per-thread aggregator, so no
//     boxed records exist until flush.
//   - scratch: the combining-off path; reusable scratch records carry the
//     pair to the collector.
//   - boxed: the pre-change path, kept as the regression reference; every
//     row allocates a key slice, a key record and a value record before the
//     collector sees them.
//
// The workload is Q2.1-shaped: two group-by columns drawn from two joined
// dimensions, 35 distinct groups.
func BenchmarkAggregateEmit(b *testing.B) {
	gschema := records.NewSchema(
		records.F("d_year", records.KindInt64),
		records.F("p_brand1", records.KindString),
	)
	const groups = 35
	years := make([][]records.Value, groups)
	brands := make([][]records.Value, groups)
	for i := range years {
		years[i] = []records.Value{records.Int(int64(1992 + i%7))}
		brands[i] = []records.Value{records.Str(fmt.Sprintf("MFGR#12%02d", i))}
	}
	newRunner := func(combining bool) *starJoinRunner {
		var ab Ablate
		if !combining {
			ab = NoInMapperCombining
		}
		return &starJoinRunner{
			eng:  &Engine{opts: Options{Ablate: ab}},
			dims: make([]DimSpec, 2),
			out:  gschema,
			agg:  expr.Col("lo_revenue"),
		}
	}
	// Where bind would find the group key: one aux column of each dimension.
	srcs := []outputSource{{factIdx: -1, dim: 0, aux: 0}, {factIdx: -1, dim: 1, aux: 0}}

	b.Run("inmapper", func(b *testing.B) {
		r := newRunner(true)
		sc := r.newScratch()
		out := &encodeSink{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g := i % groups
			sc.auxRow[0], sc.auxRow[1] = years[g], brands[g]
			if err := r.emit(sc, out, srcs, float64(i)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := sc.agg.flush(gschema, out); err != nil {
			b.Fatal(err)
		}
		benchSink = int64(out.n)
	})

	b.Run("scratch", func(b *testing.B) {
		r := newRunner(false)
		sc := r.newScratch()
		out := &encodeSink{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g := i % groups
			sc.auxRow[0], sc.auxRow[1] = years[g], brands[g]
			if err := r.emit(sc, out, srcs, float64(i)); err != nil {
				b.Fatal(err)
			}
		}
		benchSink = int64(out.n)
	})

	b.Run("boxed", func(b *testing.B) {
		r := newRunner(false)
		sc := r.newScratch()
		out := &encodeSink{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g := i % groups
			sc.auxRow[0], sc.auxRow[1] = years[g], brands[g]
			keyVals := make([]records.Value, len(srcs))
			for gi, src := range srcs {
				keyVals[gi] = sc.auxRow[src.dim][src.aux]
			}
			key := records.Make(gschema, keyVals...)
			val := records.Make(aggValueSchema, records.Float(float64(i)))
			if err := out.Collect(key, val); err != nil {
				b.Fatal(err)
			}
		}
		benchSink = int64(out.n)
	})
}

var benchSink int64
