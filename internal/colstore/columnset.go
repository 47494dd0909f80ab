package colstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"clydesdale/internal/hdfs"
	"clydesdale/internal/records"
)

// A column set is a whole (small) table held as one blob, column by column:
// the form of the node-local dimension copies (§4). It reuses the CCF2
// column codec — every column is one encodeColumn payload (dict, dict-i64,
// frame-of-reference or plain) — behind a directory that lets a reader open any
// subset of the columns without touching the rest:
//
//	magic "CCS1"
//	uint32  directory length (little-endian)
//	directory:
//	  uvarint rows, uvarint columns
//	  per column: kind, encoding, flags (1 byte each),
//	              uvarint offset, uvarint length, uint32 payload CRC
//	uint32  CRC of everything above
//	payloads, back to back; offsets are relative to the first payload
//
// The directory CRC is checked by OpenColumnSet, a payload's CRC when its
// column is opened, so a build pays verification only for what it reads.
// Flag colBoxed marks a column holding values that are not of the schema's
// kind (nulls, above all): it is stored as a plain tagged stream and can
// only be read boxed, because typed vectors carry no null mask.

// ErrBadColumnSet is wrapped by every error reading a column set: a blob
// that is truncated, fails a CRC, disagrees with the schema it is opened
// against, or does not decode. Holders of a cached copy match it to decide
// that the copy, not the caller, is at fault.
var ErrBadColumnSet = errors.New("colstore: bad column set")

var columnSetMagic = [4]byte{'C', 'C', 'S', '1'}

const colBoxed = 1 // directory flag: values of other kinds than the column's

func badColumnSet(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadColumnSet, fmt.Sprintf(format, args...))
}

// columnSetWriter buffers a table's rows per column. A column stays in a
// typed vector while every value has the schema's kind and moves to boxed
// values at the first one that does not.
type columnSetWriter struct {
	schema *records.Schema
	typed  []*records.ColumnVector // nil once the column went boxed
	boxed  [][]records.Value
	rows   int
}

func newColumnSetWriter(schema *records.Schema) *columnSetWriter {
	w := &columnSetWriter{
		schema: schema,
		typed:  make([]*records.ColumnVector, schema.Len()),
		boxed:  make([][]records.Value, schema.Len()),
	}
	for i := range w.typed {
		if k := schema.Field(i).Kind; k != records.KindNull {
			w.typed[i] = records.NewColumnVector(k, 0)
		}
	}
	return w
}

func (w *columnSetWriter) append(r records.Record) error {
	if r.Len() != len(w.typed) {
		return fmt.Errorf("colstore: %d-value row for %d-column set", r.Len(), len(w.typed))
	}
	for i, cv := range w.typed {
		v := r.At(i)
		switch {
		case cv == nil:
			w.boxed[i] = append(w.boxed[i], v)
		case v.Kind() == cv.Kind:
			cv.Append(v)
		default:
			vals := make([]records.Value, w.rows, w.rows+1)
			for j := range vals {
				vals[j] = cv.Value(j)
			}
			w.boxed[i], w.typed[i] = append(vals, v), nil
		}
	}
	w.rows++
	return nil
}

func (w *columnSetWriter) encode() []byte {
	cols := make([]columnBlob, len(w.typed))
	var sc encodeScratch
	for i, cv := range w.typed {
		cols[i] = columnBlob{kind: w.schema.Field(i).Kind}
		if cv != nil {
			cols[i].enc, cols[i].payload, _ = encodeColumn(cv, &sc)
			continue
		}
		cols[i].flags = colBoxed
		for _, v := range w.boxed[i] {
			cols[i].payload = records.AppendValue(cols[i].payload, v)
		}
	}
	return assembleColumnSet(w.rows, cols)
}

// columnBlob is one column on its way into a column set.
type columnBlob struct {
	kind    records.Kind
	enc     Encoding
	flags   byte
	payload []byte
}

// assembleColumnSet lays the blob out: header, directory, directory CRC,
// payloads.
func assembleColumnSet(rows int, cols []columnBlob) []byte {
	dir := binary.AppendUvarint(nil, uint64(rows))
	dir = binary.AppendUvarint(dir, uint64(len(cols)))
	var payloads []byte
	for _, c := range cols {
		dir = append(dir, byte(c.kind), byte(c.enc), c.flags)
		dir = binary.AppendUvarint(dir, uint64(len(payloads)))
		dir = binary.AppendUvarint(dir, uint64(len(c.payload)))
		dir = binary.LittleEndian.AppendUint32(dir, crc32.ChecksumIEEE(c.payload))
		payloads = append(payloads, c.payload...)
	}
	buf := append([]byte(nil), columnSetMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(dir)))
	buf = append(buf, dir...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return append(buf, payloads...)
}

// EncodeRowTable returns one version of the row-format table at dir — its
// first version part files, which no later append touches — as a column
// set. Every call reads the version's schema and part files whole, the part
// files as clientNode, with every replica check and charge of the read; the
// column set is encoded once per filesystem and version, by the first
// caller, and shared with every later one (Snapshots.image), so it must not
// be written into.
func EncodeRowTable(fs *hdfs.FileSystem, dir string, version uint64, clientNode string) ([]byte, error) {
	schema, err := ReadSchema(fs, dir)
	if err != nil {
		return nil, err
	}
	in := &RowInput{Schema: schema}
	if err := in.resolve(fs); err != nil {
		return nil, err
	}
	paths := rowPartPaths(dir, version)
	files := make([]*hdfs.Reader, len(paths))
	var blocks []int64
	for i, path := range paths {
		if files[i], err = fs.Open(path, clientNode); err != nil {
			return nil, err
		}
		blocks = files[i].AppendBlockIDs(blocks)
	}
	walk := func(fn func(records.Record) error) error {
		for i, r := range files {
			if err := readRowFile(r, paths[i], in, fn); err != nil {
				return err
			}
		}
		return nil
	}
	reg := NewSnapshots(fs)
	im := reg.image(dir, version, fmt.Sprint(schema, blocks))
	im.mu.Lock()
	if data := im.data; data != nil {
		im.mu.Unlock()
		if err := walk(nil); err != nil {
			return nil, err
		}
		return data, nil
	}
	defer im.mu.Unlock()
	w := newColumnSetWriter(schema)
	if err := walk(w.append); err != nil {
		return nil, err
	}
	im.data = w.encode()
	reg.imagesEncoded.Add(1)
	return im.data, nil
}

// EncodeRows returns the rows a source emits as a column set of the schema.
func EncodeRows(schema *records.Schema, rows func(fn func(records.Record) error) error) ([]byte, error) {
	w := newColumnSetWriter(schema)
	if err := rows(w.append); err != nil {
		return nil, err
	}
	return w.encode(), nil
}

// ColumnSet is an opened column-set blob. It aliases the blob, which must
// not change while the set or its readers are in use.
type ColumnSet struct {
	rows     int
	cols     []columnMeta
	payloads []byte
	dirBytes int64
}

type columnMeta struct {
	kind     records.Kind
	enc      Encoding
	boxed    bool
	off, len int
	crc      uint32
}

// OpenColumnSet checks the blob's directory (magic, CRC, that the columns
// are the schema's in number and kind, that the payloads tile the rest of
// the blob and are long enough for the row count: a packed value is at least
// one bit, so rows <= 8 x bytes) and returns the set. No column payload is
// read.
func OpenColumnSet(data []byte, schema *records.Schema) (*ColumnSet, error) {
	const head = len(columnSetMagic) + 4
	if len(data) < head+4 || string(data[:len(columnSetMagic)]) != string(columnSetMagic[:]) {
		return nil, badColumnSet("no directory")
	}
	dirLen := binary.LittleEndian.Uint32(data[len(columnSetMagic):])
	if uint64(len(data)) < uint64(head)+uint64(dirLen)+4 {
		return nil, badColumnSet("directory of %d bytes in a %d-byte blob", dirLen, len(data))
	}
	end := head + int(dirLen)
	if crc32.ChecksumIEEE(data[:end]) != binary.LittleEndian.Uint32(data[end:]) {
		return nil, badColumnSet("directory checksum mismatch")
	}
	dir := data[head:end]
	s := &ColumnSet{payloads: data[end+4:], dirBytes: int64(end + 4)}

	uvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(dir)
		if n <= 0 {
			return 0, false
		}
		dir = dir[n:]
		return v, true
	}
	rows, ok1 := uvarint()
	ncols, ok2 := uvarint()
	if !ok1 || !ok2 {
		return nil, badColumnSet("malformed directory")
	}
	if ncols != uint64(schema.Len()) || (ncols == 0 && rows != 0) {
		return nil, badColumnSet("%d rows of %d columns for a %d-field schema", rows, ncols, schema.Len())
	}
	s.cols = make([]columnMeta, ncols)
	next := uint64(0)
	for i := range s.cols {
		if len(dir) < 3 {
			return nil, badColumnSet("malformed directory")
		}
		m := columnMeta{kind: records.Kind(dir[0]), enc: Encoding(dir[1]), boxed: dir[2]&colBoxed != 0}
		dir = dir[3:]
		off, ok1 := uvarint()
		length, ok2 := uvarint()
		if !ok1 || !ok2 || len(dir) < 4 {
			return nil, badColumnSet("malformed directory")
		}
		m.crc = binary.LittleEndian.Uint32(dir)
		dir = dir[4:]
		if f := schema.Field(i); m.kind != f.Kind {
			return nil, badColumnSet("column %d (%s) is %s, schema says %s", i, f.Name, m.kind, f.Kind)
		}
		if m.boxed && m.enc != EncPlain {
			return nil, badColumnSet("column %d: boxed values in %s encoding", i, m.enc)
		}
		// Payloads tile the blob in column order, and every encoding spends
		// at least one bit per row: a directory cannot make a reader
		// allocate for more rows than eight times the bytes of the blob's
		// shortest column.
		if off != next || length > uint64(len(s.payloads))-off || rows > 8*length {
			return nil, badColumnSet("column %d: %d rows in bytes [%d,+%d) of %d", i, rows, off, length, len(s.payloads))
		}
		m.off, m.len = int(off), int(length)
		next = off + length
		s.cols[i] = m
	}
	if len(dir) != 0 || next != uint64(len(s.payloads)) {
		return nil, badColumnSet("%d payload bytes, directory covers %d", len(s.payloads), next)
	}
	s.rows = int(rows)
	return s, nil
}

// Rows returns the number of rows in every column.
func (s *ColumnSet) Rows() int { return s.rows }

// DirBytes returns the size of the header and directory.
func (s *ColumnSet) DirBytes() int64 { return s.dirBytes }

// Column verifies the i-th column's payload CRC and opens it, parsing its
// dictionary if it has one.
func (s *ColumnSet) Column(i int) (*ColumnReader, error) {
	m := s.cols[i]
	payload := s.payloads[m.off : m.off+m.len]
	if crc32.ChecksumIEEE(payload) != m.crc {
		return nil, badColumnSet("column %d: payload checksum mismatch", i)
	}
	f, err := newColFile(m.kind, m.enc, s.rows, payload)
	if err != nil {
		return nil, badColumnSet("column %d: %v", i, err)
	}
	d := f.cursor()
	return &ColumnReader{d: d, body: d.buf, rows: s.rows, boxed: m.boxed, bytes: int64(m.len)}, nil
}

// ColumnReader reads one column of a ColumnSet. Every method decodes from
// the column's first row, so a reader can serve several passes.
type ColumnReader struct {
	d     *colDecoder
	body  []byte // the decoder's buffer with its cursor on the first row
	rows  int
	boxed bool
	bytes int64
}

// Bytes returns the column's payload size.
func (c *ColumnReader) Bytes() int64 { return c.bytes }

// Boxed reports whether the column holds values that are not of its kind
// (nulls, or whatever a writer with a looser schema stored); such a column
// is read with Values only.
func (c *ColumnReader) Boxed() bool { return c.boxed }

// Dict returns the dictionary entries of a dictionary-encoded column boxed
// in code order, or nil for any other column.
func (c *ColumnReader) Dict() []records.Value {
	n := c.d.dictSize()
	if n == 0 {
		return nil
	}
	vals := make([]records.Value, n)
	for i := range vals {
		vals[i] = c.d.dictValue(i)
	}
	return vals
}

func (c *ColumnReader) rewind() {
	c.d.buf, c.d.pos = c.body, 0
}

// finish wraps a read's error. A packed payload's length was checked
// against the row count when the column was opened; a plain stream shows
// only now, read to its last row, whether bytes follow it.
func (c *ColumnReader) finish(err error) error {
	if err == nil && c.d.enc == EncPlain && len(c.d.buf) != 0 {
		err = fmt.Errorf("%d bytes after the last row", len(c.d.buf))
	}
	if err != nil {
		return badColumnSet("%s column: %v", c.d.enc, err)
	}
	return nil
}

// Codes appends every row's dictionary code to dst. Only dictionary-encoded
// columns (Dict non-nil) have codes.
func (c *ColumnReader) Codes(dst []uint32) ([]uint32, error) {
	if c.d.dictSize() == 0 {
		return dst, badColumnSet("%s column has no dictionary codes", c.d.enc)
	}
	c.rewind()
	dst, err := c.d.decodeCodes(dst, c.rows)
	return dst, c.finish(err)
}

// Decode appends the column's values to cv, which must be of the column's
// kind: every row when sel is nil, else the rows where sel (one entry per
// row) is true. Unselected values are never materialized, and on a packed
// column under a sparse selection never looked at.
func (c *ColumnReader) Decode(cv *records.ColumnVector, sel []bool) error {
	if c.boxed || cv.Kind != c.d.kind {
		return badColumnSet("typed %s read of a %s column (boxed %v)", cv.Kind, c.d.kind, c.boxed)
	}
	c.rewind()
	if sel == nil {
		return c.finish(c.d.decodeInto(cv, c.rows))
	}
	if len(sel) != c.rows {
		return badColumnSet("selection of %d over %d rows", len(sel), c.rows)
	}
	return c.finish(c.d.decodeFiltered(cv, sel))
}

// Values appends the column's values boxed to dst, selected as in Decode.
// It reads any column, boxed ones included.
func (c *ColumnReader) Values(dst []records.Value, sel []bool) ([]records.Value, error) {
	if sel != nil && len(sel) != c.rows {
		return dst, badColumnSet("selection of %d over %d rows", len(sel), c.rows)
	}
	if !c.boxed {
		cv := &records.ColumnVector{Kind: c.d.kind}
		if err := c.Decode(cv, sel); err != nil {
			return dst, err
		}
		for i, n := 0, cv.Len(); i < n; i++ {
			dst = append(dst, cv.Value(i))
		}
		return dst, nil
	}
	c.rewind()
	for i := 0; i < c.rows; i++ {
		v, err := c.d.next()
		if err != nil {
			return dst, c.finish(err)
		}
		if sel == nil || sel[i] {
			dst = append(dst, v)
		}
	}
	return dst, c.finish(nil)
}
