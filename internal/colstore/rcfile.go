package colstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/records"
)

// RCFile layout (PAX): row groups whose bytes are the concatenation of one
// chunk per column (encoded values back to back), followed by a footer:
//
//	uvarint numGroups, then per group:
//	  uvarint offset, uvarint rows, then one uvarint chunk length per column
//
// and the usual footerLen(uint32 LE) + magic tail. Readers fetch only the
// chunks of the requested columns, at row-group granularity.

var rcMagic = [4]byte{'R', 'C', 'F', '1'}

type rcGroupMeta struct {
	offset    int64
	rows      int64
	chunkLens []int64
}

// RCWriter streams records into an RCFile.
type RCWriter struct {
	w         *hdfs.Writer
	schema    *records.Schema
	groupRows int64
	cols      [][]byte
	bufRows   int64
	offset    int64
	groups    []rcGroupMeta
	closed    bool
}

// NewRCWriter opens an RCFile for writing with groupRows rows per row group
// (<= 0 chooses 8192).
func NewRCWriter(fs *hdfs.FileSystem, path, writerNode string, schema *records.Schema, groupRows int64) (*RCWriter, error) {
	if groupRows <= 0 {
		groupRows = 8192
	}
	w, err := fs.Create(path, writerNode)
	if err != nil {
		return nil, err
	}
	return &RCWriter{w: w, schema: schema, groupRows: groupRows, cols: make([][]byte, schema.Len())}, nil
}

// Append writes one record.
func (rw *RCWriter) Append(r records.Record) error {
	if rw.closed {
		return fmt.Errorf("colstore: append to closed RC writer")
	}
	if r.Len() != rw.schema.Len() {
		return fmt.Errorf("colstore: RC append arity %d != schema %d", r.Len(), rw.schema.Len())
	}
	for i := 0; i < r.Len(); i++ {
		rw.cols[i] = records.AppendValue(rw.cols[i], r.At(i))
	}
	rw.bufRows++
	if rw.bufRows >= rw.groupRows {
		return rw.flushGroup()
	}
	return nil
}

func (rw *RCWriter) flushGroup() error {
	if rw.bufRows == 0 {
		return nil
	}
	meta := rcGroupMeta{offset: rw.offset, rows: rw.bufRows, chunkLens: make([]int64, len(rw.cols))}
	for i, chunk := range rw.cols {
		if _, err := rw.w.Write(chunk); err != nil {
			return err
		}
		meta.chunkLens[i] = int64(len(chunk))
		rw.offset += int64(len(chunk))
		rw.cols[i] = rw.cols[i][:0]
	}
	rw.groups = append(rw.groups, meta)
	rw.bufRows = 0
	return nil
}

// Close flushes and writes the footer.
func (rw *RCWriter) Close() error {
	if rw.closed {
		return nil
	}
	rw.closed = true
	if err := rw.flushGroup(); err != nil {
		return err
	}
	var footer []byte
	footer = binary.AppendUvarint(footer, uint64(len(rw.groups)))
	for _, g := range rw.groups {
		footer = binary.AppendUvarint(footer, uint64(g.offset))
		footer = binary.AppendUvarint(footer, uint64(g.rows))
		for _, l := range g.chunkLens {
			footer = binary.AppendUvarint(footer, uint64(l))
		}
	}
	if _, err := rw.w.Write(footer); err != nil {
		return err
	}
	var tail [8]byte
	binary.LittleEndian.PutUint32(tail[:4], uint32(len(footer)))
	copy(tail[4:], rcMagic[:])
	if _, err := rw.w.Write(tail[:]); err != nil {
		return err
	}
	return rw.w.Close()
}

// readRCFooter loads and checks the footer of the RC file at path.
func readRCFooter(r *hdfs.Reader, path string, numCols int) ([]rcGroupMeta, error) {
	var groups []rcGroupMeta
	buf, err := readTail(r, rcMagic)
	if err == nil {
		groups, err = decodeRCFooter(buf, numCols, r.Size()-8-int64(len(buf)))
	}
	if err != nil {
		return nil, fmt.Errorf("colstore: RC file %s: %w", path, err)
	}
	return groups, nil
}

// decodeRCFooter parses an RC footer whose row groups must lie within the
// dataLen bytes in front of it. The footer's own counts size nothing until
// they are checked: a group takes at least 2+numCols footer bytes, and a
// reader sizes its chunk buffers from lengths held to the file here.
func decodeRCFooter(buf []byte, numCols int, dataLen int64) ([]rcGroupMeta, error) {
	n, read := binary.Uvarint(buf)
	if read <= 0 {
		return nil, fmt.Errorf("bad group count")
	}
	pos := read
	if n > uint64(len(buf)-pos)/uint64(2+numCols) {
		return nil, fmt.Errorf("%d groups claimed by a %d-byte footer", n, len(buf))
	}
	groups := make([]rcGroupMeta, n)
	vals := make([]int64, (2+numCols)*int(n))
	for i := range groups {
		g := vals[i*(2+numCols) : (i+1)*(2+numCols)]
		for j := range g {
			v, r := binary.Uvarint(buf[pos:])
			if r <= 0 {
				return nil, fmt.Errorf("truncated footer")
			}
			if v > uint64(dataLen) {
				return nil, fmt.Errorf("group %d: %d exceeds the %d bytes of row groups", i, v, dataLen)
			}
			g[j] = int64(v)
			pos += r
		}
		groups[i] = rcGroupMeta{offset: g[0], rows: g[1], chunkLens: g[2:]}
		end := g[0]
		for _, l := range g[2:] {
			end += l // each term is at most dataLen, so the sum cannot wrap before it is caught
			if end > dataLen {
				return nil, fmt.Errorf("group %d runs past the %d bytes of row groups", i, dataLen)
			}
		}
	}
	return groups, nil
}

// WriteRCTable writes rows into dir/part-00000 as one RCFile plus the
// schema file.
func WriteRCTable(fs *hdfs.FileSystem, dir string, schema *records.Schema, groupRows int64, rows func(emit func(records.Record) error) error) (int64, error) {
	if err := WriteSchema(fs, dir, schema); err != nil {
		return 0, err
	}
	w, err := NewRCWriter(fs, dir+"/part-00000", "", schema, groupRows)
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

// RCSplit is a run of row groups of one RCFile.
type RCSplit struct {
	Path   string
	Groups []rcGroupMeta
	Hosts  []string
	bytes  int64
}

// Locations implements mr.InputSplit.
func (s *RCSplit) Locations() []string { return s.Hosts }

// Length implements mr.InputSplit.
func (s *RCSplit) Length() int64 { return s.bytes }

// RCInput is an InputFormat over the RCFiles under Dir, reading only
// Columns (nil → all), in schema order.
type RCInput struct {
	Dir     string
	Columns []string
	Schema  *records.Schema // nil → read from _schema

	projected *records.Schema
	colIdx    []int
}

// Splits implements mr.InputFormat.
func (in *RCInput) Splits(ctx *mr.JobContext) ([]mr.InputSplit, error) {
	if err := in.resolve(ctx.FS); err != nil {
		return nil, err
	}
	var splits []mr.InputSplit
	for _, path := range listDataFiles(ctx.FS, in.Dir) {
		r, err := ctx.FS.Open(path, "")
		if err != nil {
			return nil, err
		}
		groups, err := readRCFooter(r, path, in.Schema.Len())
		r.Close()
		if err != nil {
			return nil, err
		}
		fileSplits, err := splitAtBlocks(ctx.FS, path, groups, func(g rcGroupMeta) (offset, length int64) {
			for _, l := range g.chunkLens {
				length += l
			}
			return g.offset, length
		}, func(gs []rcGroupMeta, hosts []string, bytes int64) mr.InputSplit {
			return &RCSplit{Path: path, Groups: gs, Hosts: hosts, bytes: bytes}
		})
		if err != nil {
			return nil, err
		}
		splits = append(splits, fileSplits...)
	}
	return splits, nil
}

func (in *RCInput) resolve(fs *hdfs.FileSystem) error {
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
	cols := in.Columns
	if cols == nil {
		cols = in.Schema.Names()
	}
	proj, err := in.Schema.Project(cols...)
	if err != nil {
		return err
	}
	in.projected = proj
	in.colIdx = make([]int, len(cols))
	for i, c := range cols {
		in.colIdx[i] = in.Schema.MustIndex(c)
	}
	return nil
}

// Open implements mr.InputFormat.
func (in *RCInput) Open(split mr.InputSplit, ctx *mr.TaskContext) (mr.RecordReader, error) {
	s, ok := split.(*RCSplit)
	if !ok {
		return nil, fmt.Errorf("colstore: RCInput got %T split", split)
	}
	if err := in.resolve(ctx.FS); err != nil {
		return nil, err
	}
	r, err := ctx.FS.Open(s.Path, ctx.Node().ID())
	if err != nil {
		return nil, err
	}
	r.SetTrace(ctx.TraceContext())
	return &rcReader{r: r, in: in, groups: s.Groups}, nil
}

// rcReader iterates a split's rows, fetching only the projected columns'
// chunks one row group at a time. Every row is decoded into the same value
// slice (see mr.RecordReader).
type rcReader struct {
	r      *hdfs.Reader
	in     *RCInput
	groups []rcGroupMeta
	gi     int

	bufs    [][]byte // per projected column, the group's chunk, reused from group to group
	offsets []int64  // chunk offsets within the group, reused likewise
	chunks  [][]byte // per projected column, remaining bytes
	left    int64    // rows left in current group
	row     records.Record
}

func (rc *rcReader) Next() (records.Record, records.Record, bool, error) {
	for rc.left == 0 {
		if rc.gi >= len(rc.groups) {
			return records.Record{}, records.Record{}, false, nil
		}
		if err := rc.loadGroup(rc.groups[rc.gi]); err != nil {
			return records.Record{}, records.Record{}, false, err
		}
		rc.gi++
	}
	if rc.row.IsZero() {
		rc.row = records.New(rc.in.projected)
	}
	for i := range rc.chunks {
		v, n, err := records.DecodeValue(rc.chunks[i])
		if err != nil {
			return records.Record{}, records.Record{}, false, err
		}
		rc.chunks[i] = rc.chunks[i][n:]
		rc.row.Set(i, v)
	}
	rc.left--
	return records.Record{}, rc.row, true, nil
}

func (rc *rcReader) loadGroup(g rcGroupMeta) error {
	// Chunk offsets within the group come from prefix sums of chunk lengths.
	// The buffers are the previous group's: DecodeValue copies what it
	// hands out, so no row points into them.
	offsets := append(rc.offsets[:0], 0)
	for _, l := range g.chunkLens {
		offsets = append(offsets, offsets[len(offsets)-1]+l)
	}
	rc.offsets = offsets
	if rc.bufs == nil {
		rc.bufs = make([][]byte, len(rc.in.colIdx))
		rc.chunks = make([][]byte, len(rc.in.colIdx))
	}
	for i, ci := range rc.in.colIdx {
		buf := slices.Grow(rc.bufs[i][:0], int(g.chunkLens[ci]))[:g.chunkLens[ci]]
		if _, err := rc.r.ReadAt(buf, g.offset+offsets[ci]); err != nil && err != io.EOF {
			return err
		}
		rc.bufs[i], rc.chunks[i] = buf, buf
	}
	rc.left = g.rows
	return nil
}

func (rc *rcReader) Close() error { return rc.r.Close() }
