package records

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"
)

func testSchema() *Schema {
	return NewSchema(
		F("id", KindInt64),
		F("name", KindString),
		F("score", KindFloat64),
	)
}

func TestSchemaBasics(t *testing.T) {
	s := testSchema()
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if s.Index("name") != 1 || s.Index("missing") != -1 {
		t.Error("Index misreported")
	}
	if !s.Has("id") || s.Has("nope") {
		t.Error("Has misreported")
	}
	if got := s.String(); got != "(id int64, name string, score float64)" {
		t.Errorf("String = %q", got)
	}
	names := s.Names()
	if len(names) != 3 || names[0] != "id" || names[2] != "score" {
		t.Errorf("Names = %v", names)
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate field")
		}
	}()
	NewSchema(F("a", KindInt64), F("a", KindString))
}

func TestSchemaProject(t *testing.T) {
	s := testSchema()
	p, err := s.Project("score", "id")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 || p.Field(0).Name != "score" || p.Field(1).Name != "id" {
		t.Errorf("Project = %v", p)
	}
	if _, err := s.Project("nope"); err == nil {
		t.Error("expected error projecting missing field")
	}
}

func TestSchemaEqual(t *testing.T) {
	a := NewSchema(F("x", KindInt64))
	b := NewSchema(F("y", KindString))
	if !a.Equal(NewSchema(F("x", KindInt64))) {
		t.Error("Equal should match identical schemas")
	}
	if a.Equal(b) || a.Equal(nil) {
		t.Error("Equal should reject different schemas")
	}
}

func TestRecordAccess(t *testing.T) {
	s := testSchema()
	r := Make(s, Int(7), Str("alice"), Float(9.5))
	if r.Get("name").Str() != "alice" {
		t.Error("Get failed")
	}
	if r.Get("score").Float64() != 9.5 {
		t.Error("Get failed")
	}
	r.Set(s.MustIndex("score"), Float(1.25))
	if r.Get("score").Float64() != 1.25 {
		t.Error("Set failed")
	}
	if r.String() != "[7 alice 1.25]" {
		t.Errorf("String = %q", r.String())
	}
}

func TestRecordMakePanicsOnArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong arity")
		}
	}()
	Make(testSchema(), Int(1))
}

func TestRecordClone(t *testing.T) {
	r := Make(testSchema(), Int(7), Str("alice"), Float(9.5))
	cl := r.Clone()
	cl.Set(0, Int(99))
	if r.At(0).Int64() != 7 {
		t.Error("Clone must not alias")
	}
}

func TestRecordCompare(t *testing.T) {
	s := NewSchema(F("a", KindInt64), F("b", KindString))
	r1 := Make(s, Int(1), Str("x"))
	r2 := Make(s, Int(1), Str("y"))
	r3 := Make(s, Int(2), Str("a"))
	if r1.Compare(r2) != -1 || r2.Compare(r1) != 1 {
		t.Error("second field must break ties")
	}
	if r1.Compare(r3) != -1 {
		t.Error("first field must dominate")
	}
	if r1.Compare(r1.Clone()) != 0 {
		t.Error("clone must compare equal")
	}
	// Prefix ordering.
	short := Make(NewSchema(F("a", KindInt64)), Int(1))
	if short.Compare(r1) != -1 || r1.Compare(short) != 1 {
		t.Error("shorter record with equal prefix sorts first")
	}
}

func TestRecordEncodeRoundTrip(t *testing.T) {
	s := testSchema()
	r := Make(s, Int(-3), Str("日本 bytes"), Float(0.125))
	buf := AppendRecord(nil, r)
	got, n, err := DecodeRecord(buf, s)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d", n, len(buf))
	}
	if got.Compare(r) != 0 {
		t.Errorf("round trip: got %v, want %v", got, r)
	}
	if got.Schema() != s {
		t.Error("schema not attached")
	}
	// Schema arity mismatch is an error.
	if _, _, err := DecodeRecord(buf, NewSchema(F("one", KindInt64))); err == nil {
		t.Error("expected arity error")
	}
	// Anonymous decode works.
	anon, _, err := DecodeRecord(buf, nil)
	if err != nil || anon.Len() != 3 {
		t.Errorf("anonymous decode: %v %v", anon, err)
	}
}

func TestRecordEncodeRoundTripQuick(t *testing.T) {
	s := NewSchema(F("i", KindInt64), F("s", KindString))
	f := func(i int64, str string) bool {
		r := Make(s, Int(i), Str(str))
		got, _, err := DecodeRecord(AppendRecord(nil, r), s)
		return err == nil && got.Compare(r) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRecordHashConsistency(t *testing.T) {
	s := NewSchema(F("i", KindInt64), F("s", KindString))
	f := func(i int64, str string) bool {
		r := Make(s, Int(i), Str(str))
		return r.Hash() == r.Clone().Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeRecordErrors(t *testing.T) {
	if _, _, err := DecodeRecord(nil, nil); err == nil {
		t.Error("expected error on empty buffer")
	}
	// Field count says 2 but only one value present.
	buf := []byte{2}
	buf = AppendValue(buf, Int(1))
	if _, _, err := DecodeRecord(buf, nil); err == nil {
		t.Error("expected error on truncated record")
	}
	// Nine bytes claiming 2^62 fields: refused by the count, before anything
	// is sized by it (it used to be a makeslice panic, or an exabyte).
	huge := binary.AppendUvarint(nil, 1<<62)
	if _, _, err := DecodeRecord(huge, nil); err == nil || !strings.Contains(err.Error(), "fields claimed") {
		t.Errorf("oversized field count: %v", err)
	}
}

// TestDecodeRecordIntoReusesTheSlice: decoding into a slice with room takes
// its backing array; one without room, or nil, gets a fresh one.
func TestDecodeRecordIntoReusesTheSlice(t *testing.T) {
	a := AppendRecord(nil, Make(testSchema(), Int(1), Str("x"), Float(2)))
	b := AppendRecord(nil, Make(testSchema(), Int(7), Str("y"), Float(3)))
	first, _, err := DecodeRecordInto(nil, a, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	second, n, err := DecodeRecordInto(first.Values(), b, testSchema())
	if err != nil || n != len(b) {
		t.Fatal(n, err)
	}
	if &first.Values()[0] != &second.Values()[0] || first.At(0).Int64() != 7 {
		t.Error("second decode did not take the first record's slice")
	}
	third, _, err := DecodeRecordInto(make([]Value, 0, 2), a, testSchema())
	if err != nil || third.Len() != 3 || third.At(1).Str() != "x" {
		t.Errorf("decode into a short slice: %v %v", third, err)
	}
	zero, _, err := DecodeRecordInto(second.Values(), AppendRecord(nil, Record{}), nil)
	if err != nil || zero.Len() != 0 || !zero.IsZero() {
		t.Errorf("zero record decoded as %v (%v)", zero, err)
	}
	// Decoded without a schema, a record still holds its values.
	positional, _, err := DecodeRecord(a, nil)
	if err != nil || positional.Len() != 3 || positional.IsZero() {
		t.Errorf("schemaless record decoded as %v (%v), IsZero %v", positional, err, positional.IsZero())
	}
}

// FuzzDecodeRecord: whatever the bytes, DecodeRecord returns a record or an
// error. It does not panic, it consumes no more than it was given and yields
// no more values than bytes (so nothing is sized by a count the bytes merely
// claim), and what it accepts survives a round trip through the encoder.
// Value by value from the field count on, SkipValue agrees with DecodeValue on
// the bytes a value takes and on whether it fails.
func FuzzDecodeRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, pos := binary.Uvarint(data); pos > 0 {
			for pos < len(data) {
				_, n, derr := DecodeValue(data[pos:])
				m, serr := SkipValue(data[pos:])
				if (derr == nil) != (serr == nil) || n != m {
					t.Fatalf("at byte %d of %x: DecodeValue took %d (%v), SkipValue %d (%v)", pos, data, n, derr, m, serr)
				}
				if derr != nil {
					break
				}
				pos += n
			}
		}
		rec, n, err := DecodeRecord(data, nil)
		if err != nil {
			return
		}
		if n > len(data) || rec.Len() >= n {
			t.Fatalf("%d values and %d bytes consumed out of %d", rec.Len(), n, len(data))
		}
		wire := AppendRecord(nil, rec)
		again, m, err := DecodeRecordInto(make([]Value, 1), wire, nil)
		if err != nil || m != len(wire) || !bytes.Equal(AppendRecord(nil, again), wire) {
			t.Fatalf("%v re-encoded as %x does not decode back (%v)", rec, wire, err)
		}
	})
}

func TestRowBlock(t *testing.T) {
	s := testSchema()
	b := NewRowBlock(s, 4)
	rows := []Record{
		Make(s, Int(1), Str("a"), Float(0.5)),
		Make(s, Int(2), Str("b"), Float(1.5)),
	}
	for _, r := range rows {
		b.AppendRow(r)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	if got := b.Col(s.MustIndex("name")).Strs; len(got) != 2 || got[1] != "b" {
		t.Errorf("name column = %v", got)
	}
	for i, want := range rows {
		if b.Row(i).Compare(want) != 0 {
			t.Errorf("Row(%d) = %v, want %v", i, b.Row(i), want)
		}
	}
	b.Reset()
	if b.Len() != 0 || b.Col(0).Len() != 0 {
		t.Error("Reset failed")
	}
}

func TestColumnVectorValueBoxing(t *testing.T) {
	cv := NewColumnVector(KindBool, 2)
	cv.Append(Bool(true))
	cv.Append(Bool(false))
	if !cv.Value(0).Bool() || cv.Value(1).Bool() {
		t.Error("bool vector boxing failed")
	}
	fv := NewColumnVector(KindFloat64, 1)
	fv.Append(Float(2.25))
	if fv.Value(0).Float64() != 2.25 {
		t.Error("float vector boxing failed")
	}
}

func TestRowBlockSetLenValidates(t *testing.T) {
	s := NewSchema(F("a", KindInt64), F("b", KindInt64))
	b := NewRowBlock(s, 2)
	b.Col(0).Ints = append(b.Col(0).Ints, 1, 2)
	b.Col(1).Ints = append(b.Col(1).Ints, 3, 4)
	b.SetLen(2)
	if b.Len() != 2 {
		t.Error("SetLen failed")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on ragged columns")
		}
	}()
	b.Col(0).Ints = append(b.Col(0).Ints, 5)
	b.SetLen(3)
}
