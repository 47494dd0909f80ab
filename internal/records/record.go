package records

import (
	"fmt"
	"strings"
)

// Record is a row: a schema plus one value per field. Records are passed by
// value; the underlying value slice is shared, so callers must not mutate a
// record they did not create. The zero Record is the "nil record" (used for
// value-less map outputs) and has a nil schema.
type Record struct {
	schema *Schema
	vals   []Value
}

// New creates a record with the given schema and all-null values.
func New(schema *Schema) Record {
	return Record{schema: schema, vals: make([]Value, schema.Len())}
}

// Make creates a record from a schema and a full value list. It panics if
// the count does not match the schema.
func Make(schema *Schema, vals ...Value) Record {
	if len(vals) != schema.Len() {
		panic(fmt.Sprintf("records: Make got %d values for %d-field schema", len(vals), schema.Len()))
	}
	return Record{schema: schema, vals: vals}
}

// IsZero reports whether this is the zero (nil) record: no schema and no
// values. A record decoded without a schema holds values and is not zero.
func (r Record) IsZero() bool { return r.schema == nil && len(r.vals) == 0 }

// Schema returns the record's schema (nil for the zero record).
func (r Record) Schema() *Schema { return r.schema }

// Len returns the number of fields.
func (r Record) Len() int { return len(r.vals) }

// At returns the i-th value.
func (r Record) At(i int) Value { return r.vals[i] }

// Get returns the value of the named field, panicking if absent.
func (r Record) Get(name string) Value { return r.vals[r.schema.MustIndex(name)] }

// Set assigns the i-th value in place and returns the record for chaining.
func (r Record) Set(i int, v Value) Record {
	r.vals[i] = v
	return r
}

// Values returns the underlying value slice. Callers must treat it as
// read-only.
func (r Record) Values() []Value { return r.vals }

// Clone returns a deep copy of the record (its value slice is fresh).
func (r Record) Clone() Record {
	return Record{schema: r.schema, vals: append([]Value(nil), r.vals...)}
}

// Compare orders two records field-by-field. Records of different lengths
// compare by length after their common prefix.
func (r Record) Compare(o Record) int {
	n := len(r.vals)
	if len(o.vals) < n {
		n = len(o.vals)
	}
	for i := 0; i < n; i++ {
		if c := r.vals[i].Compare(o.vals[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(r.vals) < len(o.vals):
		return -1
	case len(r.vals) > len(o.vals):
		return 1
	}
	return 0
}

// Hash returns an FNV-1a hash over all values.
func (r Record) Hash() uint64 {
	h := HashSeed
	for _, v := range r.vals {
		h = v.Hash(h)
	}
	return h
}

// MemSize estimates the in-memory footprint of the record in bytes.
func (r Record) MemSize() int64 {
	var n int64 = 24 // slice header
	for _, v := range r.vals {
		n += v.MemSize()
	}
	return n
}

// String renders the record as "[v1 v2 ...]", a positional record (one
// decoded without a schema) too.
func (r Record) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, v := range r.vals {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(v.String())
	}
	b.WriteByte(']')
	return b.String()
}
