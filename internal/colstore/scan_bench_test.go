package colstore

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"clydesdale/internal/expr"
	"clydesdale/internal/mr"
	"clydesdale/internal/records"
)

// BenchmarkCIFScan measures the block-scan path over a multi-partition CIF
// table (delta-coded id, dictionary-coded tag, plain floats) in three
// configurations: decoding everything, late-materializing behind a selective
// predicate, and the same predicate with zone-map pruning enabled. The
// ns/row deltas between the three are the wins this scan path exists for.
// A fourth, small-partitions, reads 128 partitions of 1 024 rows, as live
// ingestion leaves a fact table, behind a predicate on a dictionary column
// and a semi-join filter on a dictionary-coded key: there what a partition
// costs to open, not its rows, is most of the scan. A fifth, parallel, is
// late-mat's scan run by GOMAXPROCS readers at once, each over every split,
// all counting into one job's mr.Counters as a task's probe threads do;
// its ns/tablerow is per row any of them read. Every column file's open
// is memoized on its block by the first scan. B/op and allocs/op are those
// of a warm scan, counted with the collector off (reportWarmAllocs).
func BenchmarkCIFScan(b *testing.B) {
	e := newEnv(2, 1<<20)
	const nParts, pRows = 8, 4096
	writePruneTable(b, e, "/bench", nParts, pRows)
	const smallParts, smallRows = 128, 1024
	if _, err := WriteCIFTable(e.fs, "/small", smallSchema, smallRows, func(emit func(records.Record) error) error {
		for i := 0; i < smallParts*smallRows; i++ {
			if err := emit(records.Make(smallSchema, records.Int(int64(i)), records.Int(int64(i*7919%500)),
				records.Str(fmt.Sprintf("tag-%d", i%7)), records.Float(float64(i)*0.5))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	var fks []int64
	for k := int64(0); k < 500; k += 3 {
		fks = append(fks, k)
	}

	// Matches ~1.5 partitions; the rest are refutable by zone maps.
	pred := expr.Between(expr.Col("id"), records.Int(pRows), records.Int(pRows*5/2))

	cases := []struct {
		name string
		rows int64
		in   *CIFInput
	}{
		{"full-decode", nParts * pRows, &CIFInput{Dir: "/bench", Schema: pruneSchema, BlockRows: 1024}},
		{"late-mat", nParts * pRows, &CIFInput{Dir: "/bench", Schema: pruneSchema, BlockRows: 1024,
			Pred: pred, DisablePruning: true}},
		{"pruned", nParts * pRows, &CIFInput{Dir: "/bench", Schema: pruneSchema, BlockRows: 1024, Pred: pred}},
		{"small-partitions", smallParts * smallRows, &CIFInput{Dir: "/small", Schema: smallSchema, BlockRows: 1024,
			Pred:         expr.Le(expr.Col("tag"), expr.ConstStr("tag-2")),
			KeyFilters:   []KeyFilter{{Column: "fk", Keys: NewKeyBloom(fks, 10)}},
			EagerColumns: []string{"fk"}}},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			var rows int64
			scan := func() {
				jctx := &mr.JobContext{FS: e.fs, Cluster: e.cluster, Counters: mr.NewCounters()}
				splits, err := bc.in.Splits(jctx)
				if err != nil {
					b.Fatal(err)
				}
				for _, s := range splits {
					r, err := bc.in.Open(s, mr.NewTestTaskContext(jctx, e.cluster.Nodes()[0]))
					if err != nil {
						b.Fatal(err)
					}
					br := r.(BlockReader)
					for {
						blk, ok, err := br.NextBlock()
						if err != nil {
							b.Fatal(err)
						}
						if !ok {
							break
						}
						rows += int64(blk.Len())
					}
					r.Close()
				}
			}
			scan() // fills the memo
			b.ReportAllocs()
			for b.Loop() {
				scan()
			}
			if rows == 0 {
				b.Fatal("benchmark scanned no rows")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(bc.rows*int64(b.N)), "ns/tablerow")
			reportWarmAllocs(b, scan)
		})
	}
	b.Run("parallel", func(b *testing.B) {
		in := cases[1].in
		readers := runtime.GOMAXPROCS(0)
		scan := func() {
			jctx := &mr.JobContext{FS: e.fs, Cluster: e.cluster, Counters: mr.NewCounters()}
			splits, err := in.Splits(jctx)
			if err != nil {
				b.Fatal(err)
			}
			var wg sync.WaitGroup
			for range readers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, s := range splits {
						r, err := in.Open(s, mr.NewTestTaskContext(jctx, e.cluster.Nodes()[0]))
						if err != nil {
							b.Error(err)
							return
						}
						for br := r.(BlockReader); ; {
							if _, ok, err := br.NextBlock(); err != nil || !ok {
								break
							}
						}
						r.Close()
					}
				}()
			}
			wg.Wait()
			if got := jctx.Counters.Get(CtrRowsScanned); got != int64(readers)*cases[1].rows {
				b.Fatalf("%d readers scanned %d rows, want %d", readers, got, int64(readers)*cases[1].rows)
			}
		}
		scan()
		b.ReportAllocs()
		for b.Loop() {
			scan()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cases[1].rows*int64(readers*b.N)), "ns/tablerow")
		reportWarmAllocs(b, scan)
	})
}

// smallSchema is BenchmarkCIFScan's small-partitions table: a unique id, a
// dictionary-coded key, a dictionary-coded tag and a plain float.
var smallSchema = records.NewSchema(
	records.F("id", records.KindInt64),
	records.F("fk", records.KindInt64),
	records.F("tag", records.KindString),
	records.F("weight", records.KindFloat64),
)

// reportWarmAllocs replaces a benchmark's B/op and allocs/op with the median
// of five runs of f on warm pools (five runs refill them) with the garbage
// collector off, as internal/mr's BenchmarkShuffle does: a collection among
// the timed runs empties the readers' scratch pool, and the framework's
// figure read whether one fell in the timed window. ns/op is the timed
// runs'.
func reportWarmAllocs(b *testing.B, f func()) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for range 5 {
		f()
	}
	var bytes, allocs [5]uint64
	for i := range bytes {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		bytes[i], allocs[i] = after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	}
	slices.Sort(bytes[:])
	slices.Sort(allocs[:])
	b.ReportMetric(float64(bytes[len(bytes)/2]), "B/op")
	b.ReportMetric(float64(allocs[len(allocs)/2]), "allocs/op")
}

// BenchmarkColumnDecode measures the positional decoders a block at a time
// (1024 rows) over a 64-block column: unpacking a run of 12-bit dictionary
// codes, unpacking a frame-of-reference run, gathering a late column under
// selections that keep 1 %, 10 % and 50 % of the rows (the last is dense
// enough that the decoder unpacks and compacts instead), and skipping.
// ns/value is per row the call moves past, kept or not — the number to
// hold against a stream decoder, which pays it for every row — and
// bytes/value what a row of the column occupies; allocs/op must stay 0.
func BenchmarkColumnDecode(b *testing.B) {
	const blockRows, blocks = 1024, 64
	rng := rand.New(rand.NewSource(9))
	codes := records.NewColumnVector(records.KindInt64, blockRows*blocks)
	wide := records.NewColumnVector(records.KindInt64, blockRows*blocks)
	for i := 0; i < blockRows*blocks; i++ {
		codes.Ints = append(codes.Ints, 19920101+int64(rng.Intn(maxDictEntries)))
		wide.Ints = append(wide.Ints, 1_000_000+int64(rng.Intn(6_000_000)))
	}
	open := func(cv *records.ColumnVector, want Encoding) *colDecoder {
		enc, payload, _ := encodeColumn(cv, nil)
		if enc != want {
			b.Fatalf("column encoded as %s, want %s", enc, want)
		}
		return openPayload(b, cv.Kind, enc, cv.Len(), payload)
	}
	out := records.NewColumnVector(records.KindInt64, blockRows)
	// gather reads a block under a selection keeping about percent of its
	// rows, as NextBlock reads a deferred column: the list of selected
	// positions is built once per block (here, per call).
	gather := func(percent int) func(d *colDecoder) error {
		s := &selection{mask: make([]bool, blockRows)}
		for i := range s.mask {
			if s.mask[i] = rng.Intn(100) < percent; s.mask[i] {
				s.count++
			}
		}
		return func(d *colDecoder) error {
			s.listed = false
			return d.decodeSelected(out, s)
		}
	}
	var raw []uint32
	for _, bc := range []struct {
		name string
		dec  *colDecoder
		read func(d *colDecoder) error
	}{
		{"codes", open(codes, EncDictI64), func(d *colDecoder) (err error) {
			raw, err = d.decodeCodes(raw[:0], blockRows)
			return err
		}},
		{"for", open(wide, EncFOR), func(d *colDecoder) error { return d.decodeInto(out, blockRows) }},
		{"gather-1pct", open(wide, EncFOR), gather(1)},
		{"gather-10pct", open(wide, EncFOR), gather(10)},
		{"gather-50pct", open(wide, EncFOR), gather(50)},
		{"skip", open(wide, EncFOR), func(d *colDecoder) error { return d.skip(blockRows) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if bc.dec.pos == bc.dec.rows {
					bc.dec.pos = 0
				}
				out.Reset()
				if err := bc.read(bc.dec); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(blockRows*b.N), "ns/value")
			b.ReportMetric(float64(len(bc.dec.buf))/float64(bc.dec.rows), "bytes/value")
		})
	}
}
