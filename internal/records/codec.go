package records

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The wire encoding of a record is schema-less and compact: one kind byte
// per value, followed by a kind-dependent payload (zig-zag varint for
// integers and booleans, fixed 8 bytes for floats, length-prefixed bytes for
// strings). Decoding therefore requires the schema only to attach names, not
// to parse. This is the format used for map-output spills, shuffle transfer,
// and the row/columnar storage formats.

// AppendValue appends the encoding of v to dst and returns the result.
func AppendValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindInt64, KindBool:
		dst = binary.AppendVarint(dst, v.i)
	case KindFloat64:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.f))
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	}
	return dst
}

// DecodeValue decodes one value from buf, returning the value and the number
// of bytes consumed.
func DecodeValue(buf []byte) (Value, int, error) {
	if len(buf) == 0 {
		return Null, 0, fmt.Errorf("records: decode value: empty buffer")
	}
	kind := Kind(buf[0])
	pos := 1
	switch kind {
	case KindNull:
		return Null, pos, nil
	case KindInt64, KindBool:
		i, n := binary.Varint(buf[pos:])
		if n <= 0 {
			return Null, 0, fmt.Errorf("records: decode value: bad varint")
		}
		return Value{kind: kind, i: i}, pos + n, nil
	case KindFloat64:
		if len(buf) < pos+8 {
			return Null, 0, fmt.Errorf("records: decode value: short float")
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:]))
		return Value{kind: kind, f: f}, pos + 8, nil
	case KindString:
		l, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return Null, 0, fmt.Errorf("records: decode value: bad string length")
		}
		pos += n
		if uint64(len(buf)-pos) < l {
			return Null, 0, fmt.Errorf("records: decode value: short string")
		}
		return Value{kind: kind, s: string(buf[pos : pos+int(l)])}, pos + int(l), nil
	default:
		return Null, 0, fmt.Errorf("records: decode value: unknown kind %d", kind)
	}
}

// SkipValue returns the number of bytes the value at the front of buf takes,
// without decoding it: it refuses what DecodeValue refuses (an empty buffer,
// an unknown kind, a malformed varint, a string or float running past the
// buffer) and allocates nothing but its error.
func SkipValue(buf []byte) (int, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("records: skip value: empty buffer")
	}
	switch Kind(buf[0]) {
	case KindNull:
		return 1, nil
	case KindInt64, KindBool:
		if _, n := binary.Varint(buf[1:]); n > 0 {
			return 1 + n, nil
		}
		return 0, fmt.Errorf("records: skip value: bad varint")
	case KindFloat64:
		if len(buf) < 9 {
			return 0, fmt.Errorf("records: skip value: short float")
		}
		return 9, nil
	case KindString:
		l, n := binary.Uvarint(buf[1:])
		if n <= 0 {
			return 0, fmt.Errorf("records: skip value: bad string length")
		}
		if uint64(len(buf)-1-n) < l {
			return 0, fmt.Errorf("records: skip value: short string")
		}
		return 1 + n + int(l), nil
	default:
		return 0, fmt.Errorf("records: skip value: unknown kind %d", buf[0])
	}
}

// AppendRecord appends the encoding of r (a field-count uvarint followed by
// each value) to dst and returns the result.
func AppendRecord(dst []byte, r Record) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r.vals)))
	for _, v := range r.vals {
		dst = AppendValue(dst, v)
	}
	return dst
}

// DecodeRecord decodes a record encoded by AppendRecord, attaching the given
// schema (which may be nil, producing an anonymous record usable only
// positionally). It returns the record and the number of bytes consumed.
func DecodeRecord(buf []byte, schema *Schema) (Record, int, error) {
	return DecodeRecordInto(nil, buf, schema)
}

// DecodeRecordInto is DecodeRecord with the caller supplying the value
// slice: the record's values are decoded into dst's backing array when it is
// large enough (a fresh slice is allocated otherwise) and the returned record
// aliases it, so the record is valid only until dst's array is decoded into
// again. Readers that hand out one record at a time pass the previous
// record's Values back in.
func DecodeRecordInto(dst []Value, buf []byte, schema *Schema) (Record, int, error) {
	n, read := binary.Uvarint(buf)
	if read <= 0 {
		return Record{}, 0, fmt.Errorf("records: decode record: bad field count")
	}
	// A value is at least its kind byte, so a count beyond the bytes that
	// remain is corrupt; refuse it before sizing anything by it.
	if n > uint64(len(buf)-read) {
		return Record{}, 0, fmt.Errorf("records: decode record: %d fields claimed in %d bytes", n, len(buf)-read)
	}
	if schema != nil && int(n) != schema.Len() {
		return Record{}, 0, fmt.Errorf("records: decode record: %d values for %d-field schema", n, schema.Len())
	}
	pos := read
	vals := dst
	if vals == nil || cap(vals) < int(n) {
		vals = make([]Value, n)
	}
	vals = vals[:n]
	for i := range vals {
		v, used, err := DecodeValue(buf[pos:])
		if err != nil {
			return Record{}, 0, fmt.Errorf("records: decode record field %d: %w", i, err)
		}
		vals[i] = v
		pos += used
	}
	return Record{schema: schema, vals: vals}, pos, nil
}
