package colstore

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"clydesdale/internal/mr"
	"clydesdale/internal/records"
)

// randomRows builds n records with pseudo-random contents over a schema
// covering every kind.
var propSchema = records.NewSchema(
	records.F("i", records.KindInt64),
	records.F("f", records.KindFloat64),
	records.F("s", records.KindString),
	records.F("b", records.KindBool),
)

func randomRows(rng *rand.Rand, n int) []records.Record {
	rows := make([]records.Record, n)
	for i := range rows {
		strLen := rng.Intn(20)
		buf := make([]byte, strLen)
		for j := range buf {
			buf[j] = byte('a' + rng.Intn(26))
		}
		rows[i] = records.Make(propSchema,
			records.Int(rng.Int63n(1<<40)-(1<<39)),
			records.Float(rng.NormFloat64()*1e6),
			records.Str(string(buf)),
			records.Bool(rng.Intn(2) == 0),
		)
	}
	return rows
}

// readAllVia reads a table back through its input format, outside a job.
func readAllVia(t *testing.T, e *env, in mr.InputFormat) []records.Record {
	t.Helper()
	jctx := &mr.JobContext{FS: e.fs, Cluster: e.cluster, Counters: mr.NewCounters()}
	splits, err := in.Splits(jctx)
	if err != nil {
		t.Fatal(err)
	}
	var rows []records.Record
	for _, s := range splits {
		r, err := in.Open(s, mr.NewTestTaskContext(jctx, e.cluster.Nodes()[0]))
		if err != nil {
			t.Fatal(err)
		}
		for {
			_, rec, ok, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			// CIF's Next reuses a scratch value slice across calls.
			rows = append(rows, rec.Clone())
		}
		r.Close()
	}
	return rows
}

// TestFormatsRoundTripQuick: for random row sets and random format
// parameters, every storage format returns exactly the rows written, in
// order within each file.
func TestFormatsRoundTripQuick(t *testing.T) {
	run := 0
	f := func(seed int64) bool {
		run++
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300) + 1
		rows := randomRows(rng, n)
		e := newEnv(3, int64(rng.Intn(2000)+128))

		emitRows := func(emit func(records.Record) error) error {
			for _, r := range rows {
				if err := emit(r); err != nil {
					return err
				}
			}
			return nil
		}

		// Row format.
		rowDir := fmt.Sprintf("/p/rows-%d", run)
		if _, err := WriteRowTable(e.fs, rowDir, propSchema, emitRows); err != nil {
			t.Log(err)
			return false
		}
		got := readAllVia(t, e, &RowInput{Dir: rowDir, Schema: propSchema})
		if !sameRows(rows, got) {
			t.Logf("row format mismatch (n=%d)", n)
			return false
		}

		// RCFile with random group size.
		rcDir := fmt.Sprintf("/p/rc-%d", run)
		if _, err := WriteRCTable(e.fs, rcDir, propSchema, int64(rng.Intn(64)+1), emitRows); err != nil {
			t.Log(err)
			return false
		}
		got = readAllVia(t, e, &RCInput{Dir: rcDir, Schema: propSchema})
		if !sameRows(rows, got) {
			t.Logf("RCFile mismatch (n=%d)", n)
			return false
		}

		// CIF with random partition size.
		cifDir := fmt.Sprintf("/p/cif-%d", run)
		if _, err := WriteCIFTable(e.fs, cifDir, propSchema, int64(rng.Intn(64)+1), emitRows); err != nil {
			t.Log(err)
			return false
		}
		got = readAllVia(t, e, &CIFInput{Dir: cifDir, Schema: propSchema})
		if !sameRows(rows, got) {
			t.Logf("CIF mismatch (n=%d)", n)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// sameRows compares multisets of records (formats may interleave files but
// here single writers preserve order; compare sorted to be safe).
func sameRows(want, got []records.Record) bool {
	if len(want) != len(got) {
		return false
	}
	w := append([]records.Record(nil), want...)
	g := append([]records.Record(nil), got...)
	sortRecords(w)
	sortRecords(g)
	for i := range w {
		if w[i].Compare(g[i]) != 0 {
			return false
		}
	}
	return true
}

func sortRecords(rs []records.Record) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Compare(rs[j-1]) < 0; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// TestCIFBlockMatchesRowsQuick: block iteration must yield exactly the rows
// of row iteration for random block sizes.
func TestCIFBlockMatchesRowsQuick(t *testing.T) {
	e := newEnv(2, 4096)
	rng := rand.New(rand.NewSource(99))
	rows := randomRows(rng, 500)
	if _, err := WriteCIFTable(e.fs, "/blk", propSchema, 97, func(emit func(records.Record) error) error {
		for _, r := range rows {
			if err := emit(r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	f := func(blockRows uint8) bool {
		br := int(blockRows)%200 + 1
		in := &CIFInput{Dir: "/blk", Schema: propSchema, BlockRows: br}
		jctx := &mr.JobContext{FS: e.fs, Cluster: e.cluster, Counters: mr.NewCounters()}
		splits, err := in.Splits(jctx)
		if err != nil {
			return false
		}
		var got []records.Record
		for _, s := range splits {
			r, err := in.Open(s, mr.NewTestTaskContext(jctx, e.cluster.Nodes()[0]))
			if err != nil {
				return false
			}
			blockReader := r.(BlockReader)
			for {
				blk, ok, err := blockReader.NextBlock()
				if err != nil {
					return false
				}
				if !ok {
					break
				}
				if blk.Len() > br {
					return false
				}
				for i := 0; i < blk.Len(); i++ {
					got = append(got, blk.Row(i).Clone())
				}
			}
			r.Close()
		}
		return sameRows(rows, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
