package colstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"clydesdale/internal/records"
)

var columnSetTestSchema = records.NewSchema(
	records.F("key", records.KindInt64),   // sequential: delta
	records.F("code", records.KindInt64),  // low cardinality: dict-i64
	records.F("name", records.KindString), // low cardinality: dict
	records.F("text", records.KindString), // unique per row: plain
	records.F("ratio", records.KindFloat64),
	records.F("flag", records.KindBool),
	records.F("maybe", records.KindInt64), // every fifth value null: boxed
)

func columnSetTestRows(n int) []records.Record {
	rows := make([]records.Record, n)
	for i := range rows {
		maybe := records.Int(int64(i % 7))
		if i%5 == 0 {
			maybe = records.Null
		}
		rows[i] = records.Make(columnSetTestSchema,
			records.Int(int64(1000+i)),
			records.Int(int64(i%13)*100),
			records.Str(fmt.Sprintf("name-%d", i%9)),
			records.Str(fmt.Sprintf("text-%06d", i)),
			records.Float(float64(i)/4),
			records.Bool(i%3 == 0),
			maybe,
		)
	}
	return rows
}

func encodeColumnSet(t testing.TB, schema *records.Schema, rows []records.Record) []byte {
	t.Helper()
	w := newColumnSetWriter(schema)
	for _, r := range rows {
		if err := w.append(r); err != nil {
			t.Fatal(err)
		}
	}
	return w.encode()
}

// TestColumnSetRoundTrip reads every column back through each access path
// — boxed, typed, typed under a selection, dictionary plus codes — and
// checks all of them against the rows written, for a table large enough to
// push the unique-string column past the dictionary cap and for an empty one.
func TestColumnSetRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 300, maxDictEntries + 500} {
		rows := columnSetTestRows(n)
		set, err := OpenColumnSet(encodeColumnSet(t, columnSetTestSchema, rows), columnSetTestSchema)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if set.Rows() != n {
			t.Fatalf("n=%d: Rows = %d", n, set.Rows())
		}
		sel := make([]bool, n)
		for i := range sel {
			sel[i] = i%3 != 1
		}
		for c := 0; c < columnSetTestSchema.Len(); c++ {
			f := columnSetTestSchema.Field(c)
			col, err := set.Column(c)
			if err != nil {
				t.Fatalf("n=%d column %s: %v", n, f.Name, err)
			}
			if want := f.Name == "maybe" && n > 0; col.Boxed() != want {
				t.Errorf("n=%d column %s: Boxed = %v, want %v", n, f.Name, col.Boxed(), want)
			}
			all, err := col.Values(nil, nil)
			if err != nil {
				t.Fatalf("n=%d column %s: Values: %v", n, f.Name, err)
			}
			picked, err := col.Values(nil, sel)
			if err != nil {
				t.Fatalf("n=%d column %s: Values(sel): %v", n, f.Name, err)
			}
			if len(all) != n {
				t.Fatalf("n=%d column %s: %d values", n, f.Name, len(all))
			}
			k := 0
			for i, r := range rows {
				if want := r.At(c); !sameValue(all[i], want) {
					t.Fatalf("n=%d column %s row %d: %v, want %v", n, f.Name, i, all[i], want)
				}
				if sel[i] {
					if !sameValue(picked[k], r.At(c)) {
						t.Fatalf("n=%d column %s row %d under selection: %v, want %v", n, f.Name, i, picked[k], r.At(c))
					}
					k++
				}
			}
			if k != len(picked) {
				t.Fatalf("n=%d column %s: %d selected values, want %d", n, f.Name, len(picked), k)
			}
			if col.Boxed() {
				if err := col.Decode(records.NewColumnVector(f.Kind, 0), nil); !errors.Is(err, ErrBadColumnSet) {
					t.Errorf("n=%d column %s: typed read of a boxed column: %v", n, f.Name, err)
				}
				continue
			}
			cv := records.NewColumnVector(f.Kind, 0)
			if err := col.Decode(cv, nil); err != nil {
				t.Fatalf("n=%d column %s: Decode: %v", n, f.Name, err)
			}
			for i := range rows {
				if !sameValue(cv.Value(i), rows[i].At(c)) {
					t.Fatalf("n=%d column %s row %d typed: %v, want %v", n, f.Name, i, cv.Value(i), rows[i].At(c))
				}
			}
			dict := col.Dict()
			wantDict := n > 20 && (f.Name == "code" || f.Name == "name")
			if (dict != nil) != wantDict && n != 1 {
				t.Errorf("n=%d column %s: dictionary of %d entries, want one: %v", n, f.Name, len(dict), wantDict)
			}
			if dict == nil {
				if _, err := col.Codes(nil); !errors.Is(err, ErrBadColumnSet) {
					t.Errorf("n=%d column %s: Codes without a dictionary: %v", n, f.Name, err)
				}
				continue
			}
			codes, err := col.Codes(nil)
			if err != nil {
				t.Fatalf("n=%d column %s: Codes: %v", n, f.Name, err)
			}
			for i, code := range codes {
				if !sameValue(dict[code], rows[i].At(c)) {
					t.Fatalf("n=%d column %s row %d: dict[%d] = %v, want %v", n, f.Name, i, code, dict[code], rows[i].At(c))
				}
			}
		}
	}
}

func sameValue(a, b records.Value) bool { return a.Kind() == b.Kind() && a.Equal(b) }

// TestColumnSetRejectsDamage damages a good blob every way the node-local
// copy can go wrong and expects ErrBadColumnSet from opening the set or, for
// payload damage, from opening the column it hit — never a panic, never a
// silent wrong read.
func TestColumnSetRejectsDamage(t *testing.T) {
	rows := columnSetTestRows(500)
	good := encodeColumnSet(t, columnSetTestSchema, rows)
	readAll := func(data []byte, schema *records.Schema) error {
		set, err := OpenColumnSet(data, schema)
		if err != nil {
			return err
		}
		for c := 0; c < schema.Len(); c++ {
			col, err := set.Column(c)
			if err != nil {
				return err
			}
			if _, err := col.Values(nil, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := readAll(good, columnSetTestSchema); err != nil {
		t.Fatalf("undamaged blob: %v", err)
	}
	expectBad := func(name string, data []byte, schema *records.Schema) {
		t.Helper()
		if err := readAll(data, schema); !errors.Is(err, ErrBadColumnSet) {
			t.Errorf("%s: err = %v, want ErrBadColumnSet", name, err)
		}
	}
	for _, n := range []int{0, 3, 8, 20, len(good) / 2, len(good) - 1} {
		expectBad(fmt.Sprintf("truncated to %d bytes", n), good[:n], columnSetTestSchema)
	}
	expectBad("trailing byte", append(append([]byte(nil), good...), 0), columnSetTestSchema)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		bad := append([]byte(nil), good...)
		at := rng.Intn(len(bad))
		if i < 100 {
			at = rng.Intn(100) // concentrate on the header and directory
		}
		bad[at] ^= 1 << uint(rng.Intn(8))
		expectBad(fmt.Sprintf("bit flipped in byte %d", at), bad, columnSetTestSchema)
	}

	// A directory that checksums correctly but lies: rebuilt with one field
	// changed, as a writer bug or a crafted blob would produce it.
	relie := func(edit func(dir []byte) []byte) []byte { return relieDirectory(good, edit) }
	expectBad("row count beyond the payloads", relie(func(dir []byte) []byte {
		_, n := binary.Uvarint(dir)
		return append(binary.AppendUvarint(nil, 1<<40), dir[n:]...)
	}), columnSetTestSchema)
	expectBad("oversized first column length", relie(func(dir []byte) []byte {
		_, n := binary.Uvarint(dir) // rows
		_, m := binary.Uvarint(dir[n:])
		pos := n + m + 3 // first column's offset
		_, o := binary.Uvarint(dir[pos:])
		_, l := binary.Uvarint(dir[pos+o:])
		out := append([]byte(nil), dir[:pos+o]...)
		out = binary.AppendUvarint(out, 1<<50)
		return append(out, dir[pos+o+l:]...)
	}), columnSetTestSchema)
	expectBad("unknown encoding", relie(func(dir []byte) []byte {
		_, n := binary.Uvarint(dir)
		_, m := binary.Uvarint(dir[n:])
		dir[n+m+1] = 9
		return dir
	}), columnSetTestSchema)

	wrongKind := records.NewSchema(
		records.F("key", records.KindInt64), records.F("code", records.KindString),
		records.F("name", records.KindString), records.F("text", records.KindString),
		records.F("ratio", records.KindFloat64), records.F("flag", records.KindBool),
		records.F("maybe", records.KindInt64))
	expectBad("schema of another kind", good, wrongKind)
	expectBad("schema of another width", good, records.NewSchema(records.F("key", records.KindInt64)))
}

// FuzzOpenColumnSet: whatever the bytes, opening a column set and reading
// every column every way returns values or an error — it does not panic,
// and because the directory is checked against the blob's length before any
// column is touched (a row costs at least a bit in every encoding, a
// dictionary entry at least a byte), nothing it allocates is sized by a
// number the blob merely claims: the row count never exceeds eight times the
// shortest payload's bytes.
func FuzzOpenColumnSet(f *testing.F) {
	good := encodeColumnSet(f, columnSetTestSchema, columnSetTestRows(64))
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(encodeColumnSet(f, columnSetTestSchema, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		set, err := OpenColumnSet(data, columnSetTestSchema)
		if err != nil {
			if !errors.Is(err, ErrBadColumnSet) {
				t.Fatalf("open error does not wrap ErrBadColumnSet: %v", err)
			}
			return
		}
		for c, m := range set.cols {
			if set.Rows() > 8*m.len {
				t.Fatalf("%d rows claimed by a blob whose column %d has %d bytes", set.Rows(), c, m.len)
			}
		}
		// Every second row is read by unpacking runs, every sixteenth by
		// gathering positions.
		sel, sparse := make([]bool, set.Rows()), make([]bool, set.Rows())
		for i := range sel {
			sel[i], sparse[i] = i%2 == 0, i%16 == 3
		}
		for c := 0; c < columnSetTestSchema.Len(); c++ {
			col, err := set.Column(c)
			if err != nil {
				continue
			}
			vals, err := col.Values(nil, nil)
			whole := err == nil
			if whole && len(vals) != set.Rows() {
				t.Fatalf("column %d: %d values for %d rows", c, len(vals), set.Rows())
			}
			for _, sel := range [][]bool{sel, sparse} {
				picked, err := col.Values(nil, sel)
				if err != nil && !errors.Is(err, ErrBadColumnSet) {
					t.Fatalf("column %d: read error does not wrap ErrBadColumnSet: %v", c, err)
				}
				for i, k := 0, 0; whole && err == nil && i < len(sel); i++ {
					if sel[i] {
						if !sameValue(picked[k], vals[i]) {
							t.Fatalf("column %d row %d: %v under a selection, %v without", c, i, picked[k], vals[i])
						}
						k++
					}
				}
			}
			if dict := col.Dict(); dict != nil {
				codes, err := col.Codes(nil)
				for _, code := range codes {
					if err == nil && int(code) >= len(dict) {
						t.Fatalf("column %d: code %d outside a %d-entry dictionary", c, code, len(dict))
					}
				}
			}
			if !col.Boxed() {
				_ = col.Decode(records.NewColumnVector(columnSetTestSchema.Field(c).Kind, 0), sel)
			}
		}
	})
}
