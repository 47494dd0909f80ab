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

// Row file layout:
//
//	[group bytes]*  footer  footerLen(uint32 LE)  magic "RWF1"
//
// where each group is a concatenation of encoded records and the footer is
//
//	uvarint numGroups, then per group: uvarint offset, byteLen, rows
//
// Groups are sized to roughly the HDFS block size so a split (one or more
// whole groups) reads locally.

var rowMagic = [4]byte{'R', 'W', 'F', '1'}

type groupMeta struct {
	offset int64
	length int64
	rows   int64
}

// RowWriter streams records into a row file.
type RowWriter struct {
	w         *hdfs.Writer
	schema    *records.Schema
	groupSize int64
	buf       []byte
	bufRows   int64
	offset    int64
	groups    []groupMeta
	closed    bool
}

// NewRowWriter opens a row file for writing. groupSize is the target bytes
// per row group; <= 0 uses the filesystem block size.
func NewRowWriter(fs *hdfs.FileSystem, path, writerNode string, schema *records.Schema, groupSize int64) (*RowWriter, error) {
	if groupSize <= 0 {
		groupSize = fs.BlockSize()
	}
	w, err := fs.Create(path, writerNode)
	if err != nil {
		return nil, err
	}
	return &RowWriter{w: w, schema: schema, groupSize: groupSize}, nil
}

// Append writes one record.
func (rw *RowWriter) Append(r records.Record) error {
	if rw.closed {
		return fmt.Errorf("colstore: append to closed row writer")
	}
	rw.buf = records.AppendRecord(rw.buf, r)
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
	if _, err := rw.w.Write(rw.buf); err != nil {
		return err
	}
	rw.groups = append(rw.groups, groupMeta{offset: rw.offset, length: int64(len(rw.buf)), rows: rw.bufRows})
	rw.offset += int64(len(rw.buf))
	rw.buf = rw.buf[:0]
	rw.bufRows = 0
	return nil
}

// Close flushes the last group and writes the footer.
func (rw *RowWriter) Close() error {
	if rw.closed {
		return nil
	}
	rw.closed = true
	if err := rw.flushGroup(); err != nil {
		return err
	}
	footer := encodeGroupFooter(rw.groups)
	if _, err := rw.w.Write(footer); err != nil {
		return err
	}
	var tail [8]byte
	binary.LittleEndian.PutUint32(tail[:4], uint32(len(footer)))
	copy(tail[4:], rowMagic[:])
	if _, err := rw.w.Write(tail[:]); err != nil {
		return err
	}
	return rw.w.Close()
}

func encodeGroupFooter(groups []groupMeta) []byte {
	var out []byte
	out = binary.AppendUvarint(out, uint64(len(groups)))
	for _, g := range groups {
		out = binary.AppendUvarint(out, uint64(g.offset))
		out = binary.AppendUvarint(out, uint64(g.length))
		out = binary.AppendUvarint(out, uint64(g.rows))
	}
	return out
}

// decodeGroupFooter parses a row-file footer whose groups must lie within
// the dataLen bytes in front of it. A group takes at least three footer
// bytes, so a count beyond a third of the footer is refused before anything
// is sized by it.
func decodeGroupFooter(buf []byte, dataLen int64) ([]groupMeta, error) {
	n, read := binary.Uvarint(buf)
	if read <= 0 {
		return nil, fmt.Errorf("bad group count")
	}
	pos := read
	if n > uint64(len(buf)-pos)/3 {
		return nil, fmt.Errorf("%d groups claimed by a %d-byte footer", n, len(buf))
	}
	groups := make([]groupMeta, n)
	for i := range groups {
		var vals [3]int64
		for j := 0; j < 3; j++ {
			v, r := binary.Uvarint(buf[pos:])
			if r <= 0 {
				return nil, fmt.Errorf("truncated footer")
			}
			if v > uint64(dataLen) {
				return nil, fmt.Errorf("group %d: %d exceeds the %d bytes of row groups", i, v, dataLen)
			}
			vals[j] = int64(v)
			pos += r
		}
		if vals[0]+vals[1] > dataLen {
			return nil, fmt.Errorf("group %d runs past the %d bytes of row groups", i, dataLen)
		}
		groups[i] = groupMeta{offset: vals[0], length: vals[1], rows: vals[2]}
	}
	return groups, nil
}

// readTail returns the footer bytes of a file ending in footer,
// footerLen(uint32 LE), magic.
func readTail(r *hdfs.Reader, magic [4]byte) ([]byte, error) {
	size := r.Size()
	if size < 8 {
		return nil, fmt.Errorf("file too small (%d bytes)", size)
	}
	var tail [8]byte
	if _, err := r.ReadAt(tail[:], size-8); err != nil && err != io.EOF {
		return nil, err
	}
	if [4]byte(tail[4:]) != magic {
		return nil, fmt.Errorf("bad magic %q, want %q", tail[4:], magic[:])
	}
	flen := int64(binary.LittleEndian.Uint32(tail[:4]))
	if flen <= 0 || flen > size-8 {
		return nil, fmt.Errorf("bad footer length %d", flen)
	}
	buf := make([]byte, flen)
	if _, err := r.ReadAt(buf, size-8-flen); err != nil && err != io.EOF {
		return nil, err
	}
	return buf, nil
}

// readFooter loads and checks the group footer of the row file at path.
func readFooter(r *hdfs.Reader, path string) ([]groupMeta, error) {
	var groups []groupMeta
	buf, err := readTail(r, rowMagic)
	if err == nil {
		groups, err = decodeGroupFooter(buf, r.Size()-8-int64(len(buf)))
	}
	if err != nil {
		return nil, fmt.Errorf("colstore: row file %s: %w", path, err)
	}
	return groups, nil
}

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

// RowSplit is a run of whole groups of one row file.
type RowSplit struct {
	Path   string
	Groups []groupMeta
	Hosts  []string
	bytes  int64
}

// Locations implements mr.InputSplit.
func (s *RowSplit) Locations() []string { return s.Hosts }

// Length implements mr.InputSplit.
func (s *RowSplit) Length() int64 { return s.bytes }

// RowInput is an InputFormat over the row files under Dir (any file not
// starting with "_"). Each split covers the groups within one HDFS block.
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
	var splits []mr.InputSplit
	for _, path := range listDataFiles(ctx.FS, in.Dir) {
		fileSplits, err := splitRowFile(ctx.FS, path)
		if err != nil {
			return nil, err
		}
		splits = append(splits, fileSplits...)
	}
	return splits, nil
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

// listDataFiles returns the non-metadata files under dir.
func listDataFiles(fs *hdfs.FileSystem, dir string) []string {
	var out []string
	for _, p := range fs.List(dir + "/") {
		base := p[len(dir)+1:]
		if len(base) > 0 && base[0] != '_' {
			out = append(out, p)
		}
	}
	return out
}

// splitRowFile groups a row file's groups into block-aligned splits.
func splitRowFile(fs *hdfs.FileSystem, path string) ([]mr.InputSplit, error) {
	r, err := fs.Open(path, "")
	if err != nil {
		return nil, err
	}
	defer r.Close()
	groups, err := readFooter(r, path)
	if err != nil {
		return nil, err
	}
	return splitAtBlocks(fs, path, groups, func(g groupMeta) (int64, int64) { return g.offset, g.length },
		func(gs []groupMeta, hosts []string, bytes int64) mr.InputSplit {
			return &RowSplit{Path: path, Groups: gs, Hosts: hosts, bytes: bytes}
		})
}

// splitAtBlocks cuts a file's groups, each at span(g) = (offset, byte
// length) in file order, into one split per HDFS block a group starts in,
// located where that block is: the split rule row files and RCFiles share.
func splitAtBlocks[G any](fs *hdfs.FileSystem, path string, groups []G, span func(G) (offset, length int64),
	split func(groups []G, hosts []string, bytes int64) mr.InputSplit) ([]mr.InputSplit, error) {
	blockSize := fs.BlockSize()
	var splits []mr.InputSplit
	for lo := 0; lo < len(groups); {
		offset, bytes := span(groups[lo])
		locs, err := fs.BlockLocations(path, offset, 1)
		if err != nil {
			return nil, err
		}
		var hosts []string
		if len(locs) > 0 {
			hosts = locs[0].Hosts
		}
		hi := lo + 1
		for ; hi < len(groups); hi++ {
			o, l := span(groups[hi])
			if o/blockSize != offset/blockSize {
				break
			}
			bytes += l
		}
		splits = append(splits, split(groups[lo:hi], hosts, bytes))
		lo = hi
	}
	return splits, nil
}

// Open implements mr.InputFormat.
func (in *RowInput) Open(split mr.InputSplit, ctx *mr.TaskContext) (mr.RecordReader, error) {
	s, ok := split.(*RowSplit)
	if !ok {
		return nil, fmt.Errorf("colstore: RowInput got %T split", split)
	}
	if err := in.resolve(ctx.FS); err != nil {
		return nil, err
	}
	r, err := ctx.FS.Open(s.Path, ctx.Node().ID())
	if err != nil {
		return nil, err
	}
	r.SetTrace(ctx.TraceContext())
	return &rowReader{r: r, in: in, groups: s.Groups}, nil
}

// rowReader iterates the records of a row split, reading one group at a
// time from HDFS. Groups are read into one buffer and rows decoded into one
// value slice (see mr.RecordReader); DecodeRecord copies string bytes out of
// the buffer, so nothing handed out points into it.
type rowReader struct {
	r      *hdfs.Reader
	in     *RowInput
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
		return records.Record{}, records.Record{}, false, err
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
