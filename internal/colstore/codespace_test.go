package colstore

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"clydesdale/internal/expr"
	"clydesdale/internal/records"
)

// Code-space execution property tests: for every encoding the scan can
// choose (dict strings, dict ints, frame-of-reference ints, plain fallback),
// predicates evaluated against raw codes / fused into frame decoding must select
// exactly the rows that decoded-value evaluation selects. The reference is
// computed independently by compiling the predicate against the full
// unfiltered row set.

var csSchema = records.NewSchema(
	records.F("dictstr", records.KindString), // low-cardinality → EncDict
	records.F("dicti", records.KindInt64),    // sparse large low-cardinality → EncDictI64
	records.F("seq", records.KindInt64),      // ascending with runs → EncFOR
	records.F("hc", records.KindString),      // > maxDictEntries distinct → EncPlain fallback
)

var csStrPool = []string{"AMERICA", "ASIA", "EUROPE", "AFRICA", "MIDEAST", "ARCTIC"}
var csIntPool = []int64{19940101, 19950315, 19961224, 19980704, 20011231, 20030208}

// writeEncodedCol stores one column file with an explicitly chosen encoding,
// bypassing the encoder's size heuristics so the parity test pins each
// encoding by construction instead of coaxing the selector with bulk data.
func writeEncodedCol(t *testing.T, e *env, path string, enc Encoding, n int, payload []byte) {
	t.Helper()
	if err := e.fs.WriteFile(path, "", columnFile(n, enc, payload)); err != nil {
		t.Fatal(err)
	}
}

func writeCodeSpaceTable(t *testing.T, e *env, dir string, rows, partRows int) []records.Record {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	var all []records.Record
	for i := 0; i < rows; i++ {
		all = append(all, records.Make(csSchema,
			records.Str(csStrPool[rng.Intn(len(csStrPool))]),
			records.Int(csIntPool[rng.Intn(len(csIntPool))]),
			records.Int(int64(1000+i/7)), // ascending runs of 7: a range settles most frames outright
			records.Str(fmt.Sprintf("u-%06d", i)),
		))
	}
	for p := 0; p*partRows < rows; p++ {
		lo, hi := p*partRows, (p+1)*partRows
		if hi > rows {
			hi = rows
		}
		part := all[lo:hi]
		strs := newDictBuilder[string](len(part))
		dictis := newDictBuilder[int64](len(part))
		seqs := make([]int64, len(part))
		hcs := &records.ColumnVector{Kind: records.KindString}
		for i, r := range part {
			strs.add(r.At(0).Str(), 0)
			dictis.add(r.At(1).Int64(), 0)
			seqs[i] = r.At(2).Int64()
			hcs.Strs = append(hcs.Strs, r.At(3).Str())
		}
		if strs.full || dictis.full {
			t.Fatal("pool columns overflowed the dictionary")
		}
		frames, size := measureFrames(seqs)
		pdir := fmt.Sprintf("%s/p-%05d", dir, p)
		writeEncodedCol(t, e, pdir+"/dictstr.col", EncDict, len(part), strs.payload(appendDictString))
		writeEncodedCol(t, e, pdir+"/dicti.col", EncDictI64, len(part), dictis.payload(binary.AppendVarint))
		writeEncodedCol(t, e, pdir+"/seq.col", EncFOR, len(part), packFrames(seqs, frames, size))
		writeEncodedCol(t, e, pdir+"/hc.col", EncPlain, len(part), encodePlain(hcs, 0))
		if err := commitPartition(e.fs, pdir); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteSchema(e.fs, dir, csSchema); err != nil {
		t.Fatal(err)
	}
	return all
}

// colEncoding reads the encoding byte of one stored column file.
func colEncoding(t *testing.T, e *env, path string) Encoding {
	t.Helper()
	data, err := e.fs.ReadAll(path, "")
	if err != nil {
		t.Fatal(err)
	}
	_, n := binary.Uvarint(data[len(cifMagic):])
	return Encoding(data[len(cifMagic)+n])
}

func TestCodeSpacePredicateParity(t *testing.T) {
	e := newEnv(1, 1<<20)
	const rows, partRows = 3_000, 1_000
	all := writeCodeSpaceTable(t, e, "/cs", rows, partRows)

	rng := rand.New(rand.NewSource(23))
	pickStr := func() records.Value {
		if rng.Intn(2) == 0 {
			return records.Str(csStrPool[rng.Intn(len(csStrPool))])
		}
		return records.Str("NOWHERE") // absent from the dictionary
	}
	pickInt := func() records.Value {
		if rng.Intn(2) == 0 {
			return records.Int(csIntPool[rng.Intn(len(csIntPool))])
		}
		return records.Int(int64(19000000 + rng.Intn(2_000_000)))
	}
	preds := []func() expr.Pred{
		func() expr.Pred { return expr.Eq(expr.Col("dictstr"), expr.ConstExpr{Val: pickStr()}) },
		func() expr.Pred { return expr.In(expr.Col("dictstr"), pickStr(), pickStr(), pickStr()) },
		func() expr.Pred { return expr.Eq(expr.Col("dicti"), expr.ConstExpr{Val: pickInt()}) },
		func() expr.Pred { return expr.In(expr.Col("dicti"), pickInt(), pickInt()) },
		func() expr.Pred {
			lo := csIntPool[rng.Intn(len(csIntPool))] - int64(rng.Intn(3))
			return expr.Between(expr.Col("dicti"), records.Int(lo), records.Int(lo+int64(rng.Intn(5_0000))))
		},
		func() expr.Pred {
			lo := int64(1000 + rng.Intn(rows/7))
			return expr.Between(expr.Col("seq"), records.Int(lo), records.Int(lo+int64(rng.Intn(200))))
		},
		func() expr.Pred { return expr.Ge(expr.Col("seq"), expr.ConstInt(int64(1000+rng.Intn(rows/7)))) },
		func() expr.Pred { return expr.Lt(expr.Col("seq"), expr.ConstInt(int64(1000+rng.Intn(rows/7)))) },
		func() expr.Pred {
			return expr.Eq(expr.Col("hc"), expr.ConstStr(fmt.Sprintf("u-%06d", rng.Intn(rows*2))))
		},
	}

	check := func(t *testing.T, p expr.Pred) {
		t.Helper()
		rp, err := expr.CompilePred(p, csSchema)
		if err != nil {
			t.Fatalf("compile %v: %v", p, err)
		}
		var want []records.Record
		for _, r := range all {
			if rp(r) {
				want = append(want, r)
			}
		}
		// DisableLateMat is not compared here: an unplanned scan returns
		// unfiltered blocks by contract (the consumer re-applies the
		// predicate), so only the two planned paths select rows.
		for _, cfg := range []struct {
			name string
			in   *CIFInput
		}{
			{"code-space", &CIFInput{Dir: "/cs", Schema: csSchema, Pred: p, BlockRows: 512}},
			{"value-space", &CIFInput{Dir: "/cs", Schema: csSchema, Pred: p, BlockRows: 512, DisableCodeSpacePreds: true}},
		} {
			got, _ := readBlocks(t, e, cfg.in)
			if !sameRows(got, want) {
				t.Errorf("pred %v via %s: got %d rows, reference %d — selections differ", p, cfg.name, len(got), len(want))
			}
		}
	}

	for trial := 0; trial < 4; trial++ {
		for _, mk := range preds {
			check(t, mk())
		}
		// Conjunctions mix code-space, fused-range, and row-predicate stages
		// in one scan.
		check(t, expr.And(preds[rng.Intn(len(preds))](), preds[rng.Intn(len(preds))]()))
	}
}

// TestCodeSpaceNullParity: the writer never produces nulls, but plain
// payloads may legally carry them (the block path coerces nulls to zero
// values). A hand-written partition with null runs must read identically
// with and without the code-space planner, predicates included.
func TestCodeSpaceNullParity(t *testing.T) {
	e := newEnv(1, 1<<20)
	schema := records.NewSchema(
		records.F("a", records.KindInt64),
		records.F("s", records.KindString),
	)
	const n = 200
	writeCol := func(name string, vals []records.Value) {
		var payload []byte
		for _, v := range vals {
			payload = records.AppendValue(payload, v)
		}
		if err := e.fs.WriteFile("/nulls/p-00000/"+name+".col", "", columnFile(n, EncPlain, payload)); err != nil {
			t.Fatal(err)
		}
	}
	av := make([]records.Value, n)
	sv := make([]records.Value, n)
	for i := 0; i < n; i++ {
		if i/10%2 == 0 { // alternating null runs of 10
			av[i], sv[i] = records.Null, records.Null
		} else {
			av[i], sv[i] = records.Int(int64(i%7)), records.Str(fmt.Sprintf("s-%d", i%5))
		}
	}
	writeCol("a", av)
	writeCol("s", sv)
	if err := commitPartition(e.fs, "/nulls/p-00000"); err != nil {
		t.Fatal(err)
	}
	if err := WriteSchema(e.fs, "/nulls", schema); err != nil {
		t.Fatal(err)
	}

	for _, p := range []expr.Pred{
		nil,
		expr.Eq(expr.Col("a"), expr.ConstInt(0)), // nulls decode as zero in block vectors
		expr.Eq(expr.Col("s"), expr.ConstStr("s-3")),
		expr.In(expr.Col("a"), records.Int(2), records.Int(4)),
	} {
		base, _ := readBlocks(t, e, &CIFInput{Dir: "/nulls", Schema: schema, Pred: p, BlockRows: 64, DisableCodeSpacePreds: true})
		got, _ := readBlocks(t, e, &CIFInput{Dir: "/nulls", Schema: schema, Pred: p, BlockRows: 64})
		if !sameRows(got, base) {
			t.Errorf("pred %v: code-space scan %d rows, value-space scan %d — null handling differs", p, len(got), len(base))
		}
	}
}

// TestDictOverflowFallbackParity: one partition under the dictionary entry
// limit (dict-encoded) and one over it (plain fallback) must answer the
// same predicate consistently across a mixed table.
func TestDictOverflowFallbackParity(t *testing.T) {
	e := newEnv(1, 1<<20)
	// The payload column "x" gives late materialization something to defer,
	// so the planned (filtering) path engages.
	schema := records.NewSchema(
		records.F("tag", records.KindString),
		records.F("x", records.KindInt64),
	)
	const partRows = maxDictEntries + 10
	var all []records.Record
	if _, err := WriteCIFTable(e.fs, "/ovf", schema, int64(partRows), func(emit func(records.Record) error) error {
		// Partition 0: low cardinality → EncDict. Partition 1: all distinct
		// → dictionary overflow → EncPlain.
		for i := 0; i < partRows; i++ {
			r := records.Make(schema, records.Str(fmt.Sprintf("t-%d", i%9)), records.Int(int64(i)))
			all = append(all, r)
			if err := emit(r); err != nil {
				return err
			}
		}
		for i := 0; i < partRows; i++ {
			r := records.Make(schema, records.Str(fmt.Sprintf("t-%d", i)), records.Int(int64(i)))
			all = append(all, r)
			if err := emit(r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := colEncoding(t, e, "/ovf/p-00000/tag.col"); got != EncDict {
		t.Fatalf("low-cardinality partition encoded as %s, want dict", got)
	}
	if got := colEncoding(t, e, "/ovf/p-00001/tag.col"); got != EncPlain {
		t.Fatalf("overflow partition encoded as %s, want plain", got)
	}

	p := expr.In(expr.Col("tag"), records.Str("t-3"), records.Str("t-4000"))
	rp, err := expr.CompilePred(p, schema)
	if err != nil {
		t.Fatal(err)
	}
	var want []records.Record
	for _, r := range all {
		if rp(r) {
			want = append(want, r)
		}
	}
	got, _ := readBlocks(t, e, &CIFInput{Dir: "/ovf", Schema: schema, Pred: p, BlockRows: 256})
	if !sameRows(got, want) {
		t.Fatalf("mixed dict/plain table: got %d rows, reference %d", len(got), len(want))
	}
}

// TestSemiJoinFilterParity: semi-join filters pushed into the scan, on
// dictionary columns (tested per dictionary entry, their codes decoded only
// for the rows the filters before them kept) and on a frame-of-reference
// column (tested per value), alone and behind a predicate, must keep exactly
// the rows a row-at-a-time evaluation of predicate and filters keeps —
// columns that were gathered, unpacked, or skipped all in step — and must
// account for every row dropped, at block sizes that straddle frames and
// selectivities from almost nothing to almost everything.
func TestSemiJoinFilterParity(t *testing.T) {
	schema := records.NewSchema(
		records.F("fa", records.KindInt64),   // 40 distinct → EncDictI64
		records.F("fb", records.KindInt64),   // 700 distinct → EncDictI64
		records.F("fc", records.KindInt64),   // EncFOR
		records.F("m", records.KindInt64),    // EncFOR, read late
		records.F("tag", records.KindString), // EncDict, read late
	)
	e := newEnv(1, 1<<20)
	rng := rand.New(rand.NewSource(31))
	const parts, partRows = 3, 2500
	var all []records.Record
	for p := 0; p < parts; p++ {
		fa, fb := newDictBuilder[int64](partRows), newDictBuilder[int64](partRows)
		tag := newDictBuilder[string](partRows)
		fc, m := make([]int64, partRows), make([]int64, partRows)
		for i := 0; i < partRows; i++ {
			r := records.Make(schema,
				records.Int(int64(rng.Intn(40))*7),
				records.Int(int64(rng.Intn(700))+1000),
				records.Int(int64(rng.Intn(30000))),
				records.Int(int64(len(all))*3-5000),
				records.Str(csStrPool[rng.Intn(len(csStrPool))]))
			all = append(all, r)
			fa.add(r.At(0).Int64(), 0)
			fb.add(r.At(1).Int64(), 0)
			fc[i], m[i] = r.At(2).Int64(), r.At(3).Int64()
			tag.add(r.At(4).Str(), 0)
		}
		pdir := fmt.Sprintf("/sj/p-%05d", p)
		writeEncodedCol(t, e, pdir+"/fa.col", EncDictI64, partRows, fa.payload(binary.AppendVarint))
		writeEncodedCol(t, e, pdir+"/fb.col", EncDictI64, partRows, fb.payload(binary.AppendVarint))
		for name, vals := range map[string][]int64{"fc": fc, "m": m} {
			frames, size := measureFrames(vals)
			writeEncodedCol(t, e, pdir+"/"+name+".col", EncFOR, partRows, packFrames(vals, frames, size))
		}
		writeEncodedCol(t, e, pdir+"/tag.col", EncDict, partRows, tag.payload(appendDictString))
		if err := commitPartition(e.fs, pdir); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteSchema(e.fs, "/sj", schema); err != nil {
		t.Fatal(err)
	}

	// keysOf draws a key set holding about the given share of [lo, lo+span).
	keysOf := func(lo, span, step int64, share float64) *KeyBloom {
		var keys []int64
		for k := int64(0); k < span; k++ {
			if rng.Float64() < share {
				keys = append(keys, lo+k*step)
			}
		}
		return NewKeyBloom(keys, 10)
	}
	shares := []float64{0.01, 0.2, 0.6, 0.97}
	share := func() float64 { return shares[rng.Intn(len(shares))] }
	for trial := 0; trial < 24; trial++ {
		filters := []KeyFilter{
			{Column: "fa", Keys: keysOf(0, 40, 7, share())},
			{Column: "fb", Keys: keysOf(1000, 700, 1, share())},
			{Column: "fc", Keys: keysOf(0, 30000, 1, share())},
		}
		rng.Shuffle(len(filters), func(i, j int) { filters[i], filters[j] = filters[j], filters[i] })
		filters = filters[:1+rng.Intn(len(filters))]
		var pred expr.Pred
		switch trial % 4 {
		case 1: // a predicate on a filtered dictionary column: its codes are read early
			pred = expr.Ge(expr.Col("fa"), expr.ConstInt(int64(rng.Intn(40))*7))
		case 2: // one that empties most blocks
			pred = expr.Between(expr.Col("m"), records.Int(-4000), records.Int(int64(rng.Intn(3000))))
		case 3: // and a code bitmap followed by a conjunct over two columns, tested row by row
			pred = expr.And(
				expr.Ge(expr.Col("fa"), expr.ConstInt(int64(rng.Intn(20))*7)),
				expr.Lt(expr.Col("fb"), expr.Col("fc")))
		}
		holds := func(records.Record) bool { return true }
		if pred != nil {
			var err error
			if holds, err = expr.CompilePred(pred, schema); err != nil {
				t.Fatal(err)
			}
		}
		var want []records.Record
		late := 0
		for _, r := range all {
			if !holds(r) {
				late++
				continue
			}
			keep := true
			for _, f := range filters {
				keep = keep && f.Keys.MayContain(r.At(schema.Index(f.Column)).Int64())
			}
			if keep {
				want = append(want, r)
			}
		}
		for _, blockRows := range []int{100, 1024, 1500} {
			for _, valueSpace := range []bool{false, true} {
				got, ctr := readBlocks(t, e, &CIFInput{Dir: "/sj", Schema: schema, Pred: pred, KeyFilters: filters,
					BlockRows: blockRows, DisablePruning: true, DisableCodeSpacePreds: valueSpace})
				what := fmt.Sprintf("trial %d (pred %v, %d filters), blocks of %d, value space %v", trial, pred, len(filters), blockRows, valueSpace)
				if len(got) != len(want) {
					t.Fatalf("%s: %d rows, reference %d", what, len(got), len(want))
				}
				for i := range want { // a scan returns rows in table order
					if got[i].Compare(want[i]) != 0 {
						t.Fatalf("%s: row %d is %v, reference %v", what, i, got[i], want[i])
					}
				}
				if l, b := ctr.Get(CtrRowsLateSkipped), ctr.Get(CtrRowsBloomSkipped); int(l) != late || int(b) != len(all)-late-len(want) {
					t.Fatalf("%s: %d rows late-skipped and %d bloom-skipped, want %d and %d", what, l, b, late, len(all)-late-len(want))
				}
			}
		}
	}
}
