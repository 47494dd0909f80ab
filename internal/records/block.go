package records

import "fmt"

// ColumnVector holds a batch of values for one column in a typed slice.
// Exactly one of the payload slices is populated, matching Kind.
//
// A dictionary-encoded producer may additionally populate Codes and Dict so
// downstream operators can keep working in code space (e.g. probing a join
// hash table through a code→offset side table instead of hashing the key).
// Codes, when present, is parallel to the value slice; producers that cannot
// supply codes leave Codes empty and Dict nil, and consumers must check
// len(Codes) == Len() before trusting it.
type ColumnVector struct {
	Kind   Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool

	Codes []uint32
	Dict  *ColumnDict
}

// ColumnDict describes the dictionary that a vector's Codes index into.
// Exactly one of Ints/Strs is populated. A producer hands out one
// descriptor per stored dictionary, so consumers can cache per-dictionary
// structures across blocks, readers and queries keyed by the pointer.
type ColumnDict struct {
	Ints []int64
	Strs []string
}

// NewColumnVector allocates an empty vector of the given kind with the given
// capacity.
func NewColumnVector(kind Kind, capacity int) *ColumnVector {
	cv := &ColumnVector{Kind: kind}
	switch kind {
	case KindInt64:
		cv.Ints = make([]int64, 0, capacity)
	case KindFloat64:
		cv.Floats = make([]float64, 0, capacity)
	case KindString:
		cv.Strs = make([]string, 0, capacity)
	case KindBool:
		cv.Bools = make([]bool, 0, capacity)
	default:
		panic(fmt.Sprintf("records: column vector of kind %s", kind))
	}
	return cv
}

// Len returns the number of values in the vector.
func (cv *ColumnVector) Len() int {
	switch cv.Kind {
	case KindInt64:
		return len(cv.Ints)
	case KindFloat64:
		return len(cv.Floats)
	case KindString:
		return len(cv.Strs)
	case KindBool:
		return len(cv.Bools)
	}
	return 0
}

// Append adds a value, which must match the vector's kind.
func (cv *ColumnVector) Append(v Value) {
	switch cv.Kind {
	case KindInt64:
		cv.Ints = append(cv.Ints, v.Int64())
	case KindFloat64:
		cv.Floats = append(cv.Floats, v.Float64())
	case KindString:
		cv.Strs = append(cv.Strs, v.Str())
	case KindBool:
		cv.Bools = append(cv.Bools, v.Bool())
	default:
		panic(fmt.Sprintf("records: append to %s column vector", cv.Kind))
	}
}

// Value returns the i-th element boxed as a Value.
func (cv *ColumnVector) Value(i int) Value {
	switch cv.Kind {
	case KindInt64:
		return Int(cv.Ints[i])
	case KindFloat64:
		return Float(cv.Floats[i])
	case KindString:
		return Str(cv.Strs[i])
	case KindBool:
		return Bool(cv.Bools[i])
	}
	return Null
}

// Compact keeps only the elements at positions where sel is true, in order.
// sel must be at least as long as the vector.
func (cv *ColumnVector) Compact(sel []bool) {
	k := 0
	switch cv.Kind {
	case KindInt64:
		for i := range cv.Ints {
			if sel[i] {
				cv.Ints[k] = cv.Ints[i]
				k++
			}
		}
		cv.Ints = cv.Ints[:k]
	case KindFloat64:
		for i := range cv.Floats {
			if sel[i] {
				cv.Floats[k] = cv.Floats[i]
				k++
			}
		}
		cv.Floats = cv.Floats[:k]
	case KindString:
		for i := range cv.Strs {
			if sel[i] {
				cv.Strs[k] = cv.Strs[i]
				k++
			}
		}
		cv.Strs = cv.Strs[:k]
	case KindBool:
		for i := range cv.Bools {
			if sel[i] {
				cv.Bools[k] = cv.Bools[i]
				k++
			}
		}
		cv.Bools = cv.Bools[:k]
	}
	// Codes travel with the values they annotate; a partial Codes slice
	// (producer stopped mid-block) is dropped rather than misaligned.
	if len(cv.Codes) >= len(sel) {
		k := 0
		for i := range sel {
			if sel[i] {
				cv.Codes[k] = cv.Codes[i]
				k++
			}
		}
		cv.Codes = cv.Codes[:k]
	} else {
		cv.Codes = cv.Codes[:0]
	}
}

// Reset truncates the vector to zero length, keeping capacity. Dict is kept:
// it describes the producer's current dictionary, which outlives blocks.
func (cv *ColumnVector) Reset() {
	cv.Ints = cv.Ints[:0]
	cv.Floats = cv.Floats[:0]
	cv.Strs = cv.Strs[:0]
	cv.Bools = cv.Bools[:0]
	cv.Codes = cv.Codes[:0]
}

// RowBlock is a batch of rows in columnar layout: one ColumnVector per
// schema field, all the same length. It is the unit of the block-iteration
// execution path (B-CIF).
type RowBlock struct {
	schema *Schema
	cols   []*ColumnVector
	n      int
}

// NewRowBlock allocates an empty block for the schema with the given row
// capacity.
func NewRowBlock(schema *Schema, capacity int) *RowBlock {
	cols := make([]*ColumnVector, schema.Len())
	for i := 0; i < schema.Len(); i++ {
		cols[i] = NewColumnVector(schema.Field(i).Kind, capacity)
	}
	return &RowBlock{schema: schema, cols: cols}
}

// Schema returns the block's schema.
func (b *RowBlock) Schema() *Schema { return b.schema }

// Len returns the number of rows in the block.
func (b *RowBlock) Len() int { return b.n }

// Col returns the vector for the i-th schema field.
func (b *RowBlock) Col(i int) *ColumnVector { return b.cols[i] }

// AppendRow adds one row; the record's schema must match positionally.
func (b *RowBlock) AppendRow(r Record) {
	if r.Len() != len(b.cols) {
		panic(fmt.Sprintf("records: AppendRow with %d values into %d-column block", r.Len(), len(b.cols)))
	}
	for i, cv := range b.cols {
		cv.Append(r.At(i))
	}
	b.n++
}

// Row materializes the i-th row as a Record. This boxes every value; the
// block-iteration execution path avoids it by reading the vectors directly.
func (b *RowBlock) Row(i int) Record {
	vals := make([]Value, len(b.cols))
	for c, cv := range b.cols {
		vals[c] = cv.Value(i)
	}
	return Record{schema: b.schema, vals: vals}
}

// Reset truncates the block to zero rows, keeping capacity.
func (b *RowBlock) Reset() {
	for _, cv := range b.cols {
		cv.Reset()
	}
	b.n = 0
}

// SetLen adjusts the logical row count after direct vector manipulation.
// All vectors must already have length n.
func (b *RowBlock) SetLen(n int) {
	for i, cv := range b.cols {
		if cv.Len() != n {
			panic(fmt.Sprintf("records: SetLen(%d) but column %d has %d values", n, i, cv.Len()))
		}
	}
	b.n = n
}
