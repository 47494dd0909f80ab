package colstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strconv"

	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/records"
)

// A row file is a group file (groupfile.go) with magic "RWF1" whose groups
// are encoded records back to back, each group cut at about groupSize bytes
// (the HDFS block size by default) so a split reads locally. A group's
// footer tuple is (offset, byte length, rows).
var rowFormat = groupFormat{
	name:  "row file",
	magic: [4]byte{'R', 'W', 'F', '1'},
	width: 3,
	tuple: func(dst []int64, g groupMeta) []int64 { return append(dst, g.offset, g.length, g.rows) },
	group: func(v []int64) groupMeta { return groupMeta{offset: v[0], length: v[1], rows: v[2]} },
}

// RowWriter streams records into a row file.
type RowWriter struct {
	groupWriter
	schema    *records.Schema
	groupSize int64
	buf       []byte
	bufRows   int64
	enc       []byte // Append's encoding of its record
}

// NewRowWriter opens a row file for writing. groupSize is the target bytes
// per row group; <= 0 uses the filesystem block size.
func NewRowWriter(fs *hdfs.FileSystem, path, writerNode string, schema *records.Schema, groupSize int64) (*RowWriter, error) {
	if groupSize <= 0 {
		groupSize = fs.BlockSize()
	}
	gw, err := createGroupFile(fs, path, writerNode, rowFormat)
	if err != nil {
		return nil, err
	}
	return &RowWriter{groupWriter: gw, schema: schema, groupSize: groupSize}, nil
}

// Append writes one record: its encoding, appended as AppendEncoded
// appends it.
func (rw *RowWriter) Append(r records.Record) error {
	rw.enc = records.AppendRecord(rw.enc[:0], r)
	return rw.AppendEncoded(rw.enc)
}

// AppendEncoded writes one row given in records.AppendRecord's encoding,
// copying it; a group is cut once it holds groupSize bytes.
func (rw *RowWriter) AppendEncoded(row []byte) error {
	if rw.closed {
		return fmt.Errorf("colstore: append to closed row writer")
	}
	rw.buf = append(rw.buf, row...)
	rw.bufRows++
	if int64(len(rw.buf)) >= rw.groupSize {
		return rw.flushGroup()
	}
	return nil
}

func (rw *RowWriter) flushGroup() error {
	if rw.bufRows == 0 {
		return nil
	}
	if err := rw.writeGroup(groupMeta{rows: rw.bufRows}, rw.buf); err != nil {
		return err
	}
	rw.buf = rw.buf[:0]
	rw.bufRows = 0
	return nil
}

// Close flushes the last group and writes the footer.
func (rw *RowWriter) Close() error { return rw.close(rw.flushGroup) }

// WriteRowTable writes rows into dir/part-00000 as one row file plus the
// schema file, returning the number of rows written.
func WriteRowTable(fs *hdfs.FileSystem, dir string, schema *records.Schema, rows func(emit func(records.Record) error) error) (int64, error) {
	if err := WriteSchema(fs, dir, schema); err != nil {
		return 0, err
	}
	w, err := NewRowWriter(fs, rowPartPath(dir, 0), "", schema, 0)
	if err != nil {
		return 0, err
	}
	var n int64
	emit := func(r records.Record) error {
		n++
		return w.Append(r)
	}
	if err := rows(emit); err != nil {
		return 0, err
	}
	return n, w.Close()
}

// rowPartPath names the i-th part file of a row table. Files are numbered
// densely from zero, so the table's first v files are its version v.
func rowPartPath(dir string, i uint64) string {
	n := strconv.FormatUint(i, 10)
	if len(n) < 5 {
		n = "00000"[len(n):] + n
	}
	return dir + "/part-" + n
}

// RowTableVersion returns the row table's current version: the number of
// part files published into it (0 when there is no such table).
func RowTableVersion(fs *hdfs.FileSystem, dir string) uint64 {
	v := uint64(0)
	for fs.Exists(rowPartPath(dir, v)) {
		v++
	}
	return v
}

// RowInput is an InputFormat over the row files under Dir (any file not
// starting with "_"). Each split covers the groups that start in one HDFS block.
// Records hold Columns (nil → all), in the order given. A row file is read
// whole whatever Columns says; the columns left out are stepped over, not
// decoded.
type RowInput struct {
	Dir     string
	Columns []string
	Schema  *records.Schema // nil → read from _schema

	projected *records.Schema
	slots     []int // per field of Schema, its place in projected, -1 if not read; nil when all are
}

// Splits implements mr.InputFormat.
func (in *RowInput) Splits(ctx *mr.JobContext) ([]mr.InputSplit, error) {
	if err := in.resolve(ctx.FS); err != nil {
		return nil, err
	}
	return rowFormat.splits(ctx.FS, in.Dir)
}

func (in *RowInput) resolve(fs *hdfs.FileSystem) error {
	if in.Schema == nil {
		s, err := ReadSchema(fs, in.Dir)
		if err != nil {
			return err
		}
		in.Schema = s
	}
	if in.projected != nil {
		return nil
	}
	if in.Columns == nil {
		in.projected = in.Schema
		return nil
	}
	proj, err := in.Schema.Project(in.Columns...)
	if err != nil {
		return err
	}
	slots := make([]int, in.Schema.Len())
	for i := range slots {
		slots[i] = -1
	}
	for j, c := range in.Columns {
		slots[in.Schema.MustIndex(c)] = j
	}
	in.projected, in.slots = proj, slots
	return nil
}

// Open implements mr.InputFormat.
func (in *RowInput) Open(split mr.InputSplit, ctx *mr.TaskContext) (mr.RecordReader, error) {
	if err := in.resolve(ctx.FS); err != nil {
		return nil, err
	}
	r, s, err := openGroupSplit(split, ctx)
	if err != nil {
		return nil, err
	}
	return &rowReader{r: r, in: in, path: s.path, groups: s.groups}, nil
}

// rowReader iterates the records of a row split, reading one group at a
// time from HDFS. Groups are read into one buffer and rows decoded into one
// value slice (see mr.RecordReader); DecodeRecord copies string bytes out of
// the buffer, so nothing handed out points into it.
type rowReader struct {
	r      *hdfs.Reader
	in     *RowInput
	path   string
	groups []groupMeta
	gi     int
	buf    []byte
	pos    int
	row    records.Record
}

func (rr *rowReader) Next() (records.Record, records.Record, bool, error) {
	for rr.pos >= len(rr.buf) {
		if rr.gi >= len(rr.groups) {
			return records.Record{}, records.Record{}, false, nil
		}
		g := rr.groups[rr.gi]
		rr.gi++
		rr.buf = slices.Grow(rr.buf[:0], int(g.length))[:g.length]
		if _, err := rr.r.ReadAt(rr.buf, g.offset); err != nil && err != io.EOF {
			return records.Record{}, records.Record{}, false, err
		}
		rr.pos = 0
	}
	var n int
	var err error
	if rr.in.slots == nil {
		rr.row, n, err = records.DecodeRecordInto(rr.row.Values(), rr.buf[rr.pos:], rr.in.Schema)
	} else {
		n, err = rr.decodeProjected(rr.buf[rr.pos:])
	}
	if err != nil {
		return records.Record{}, records.Record{}, false, fmt.Errorf("colstore: row file %s: %w", rr.path, err)
	}
	rr.pos += n
	return records.Record{}, rr.row, true, nil
}

// decodeProjected decodes the record at the front of buf into rr.row,
// keeping the projected fields and stepping over the rest, and returns the
// bytes it took. A field stepped over is checked as a decoded one is, so a
// corrupt row fails here as it fails a full read.
func (rr *rowReader) decodeProjected(buf []byte) (int, error) {
	n, pos := binary.Uvarint(buf)
	if pos <= 0 {
		return 0, fmt.Errorf("records: decode record: bad field count")
	}
	if n != uint64(len(rr.in.slots)) {
		return 0, fmt.Errorf("records: decode record: %d values for %d-field schema", n, len(rr.in.slots))
	}
	if rr.row.IsZero() {
		rr.row = records.New(rr.in.projected)
	}
	vals := rr.row.Values()
	for i, slot := range rr.in.slots {
		var used int
		var err error
		if slot < 0 {
			used, err = records.SkipValue(buf[pos:])
		} else {
			vals[slot], used, err = records.DecodeValue(buf[pos:])
		}
		if err != nil {
			return 0, fmt.Errorf("records: decode record field %d: %w", i, err)
		}
		pos += used
	}
	return pos, nil
}

func (rr *rowReader) Close() error { return rr.r.Close() }
