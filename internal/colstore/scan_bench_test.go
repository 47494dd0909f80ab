package colstore

import (
	"math/rand"
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
func BenchmarkCIFScan(b *testing.B) {
	e := newEnv(2, 1<<20)
	const nParts, pRows = 8, 4096
	writePruneTable(b, e, "/bench", nParts, pRows)
	totalRows := int64(nParts * pRows)

	// Matches ~1.5 partitions; the rest are refutable by zone maps.
	pred := expr.Between(expr.Col("id"), records.Int(pRows), records.Int(pRows*5/2))

	cases := []struct {
		name string
		in   *CIFInput
	}{
		{"full-decode", &CIFInput{Dir: "/bench", Schema: pruneSchema, BlockRows: 1024}},
		{"late-mat", &CIFInput{Dir: "/bench", Schema: pruneSchema, BlockRows: 1024,
			Pred: pred, DisablePruning: true}},
		{"pruned", &CIFInput{Dir: "/bench", Schema: pruneSchema, BlockRows: 1024, Pred: pred}},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			var rows int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
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
			if rows == 0 {
				b.Fatal("benchmark scanned no rows")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(totalRows*int64(b.N)), "ns/tablerow")
		})
	}
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
		enc, payload, _ := encodeColumn(cv)
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
