package colstore

import (
	"fmt"
	"io"
	"slices"

	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/records"
)

// An RCFile (PAX) is a group file (groupfile.go) with magic "RCF1" whose
// groups are one chunk per column, the column's encoded values back to back,
// so a reader fetches only the chunks of the columns it reads. A group's
// footer tuple is (offset, rows, then one chunk length per column).
var rcMagic = [4]byte{'R', 'C', 'F', '1'}

// rcFormat is the RCFile layout over numCols columns.
func rcFormat(numCols int) groupFormat {
	return groupFormat{
		name:  "RC file",
		magic: rcMagic,
		width: 2 + numCols,
		tuple: func(dst []int64, g groupMeta) []int64 { return append(append(dst, g.offset, g.rows), g.chunkLens...) },
		group: func(v []int64) groupMeta {
			g := groupMeta{offset: v[0], rows: v[1], chunkLens: v[2:]}
			for _, l := range g.chunkLens {
				g.length += l
			}
			return g
		},
	}
}

// RCWriter streams records into an RCFile.
type RCWriter struct {
	groupWriter
	schema    *records.Schema
	groupRows int64
	cols      [][]byte
	bufRows   int64
}

// NewRCWriter opens an RCFile for writing with groupRows rows per row group
// (<= 0 chooses 8192).
func NewRCWriter(fs *hdfs.FileSystem, path, writerNode string, schema *records.Schema, groupRows int64) (*RCWriter, error) {
	if groupRows <= 0 {
		groupRows = 8192
	}
	gw, err := createGroupFile(fs, path, writerNode, rcFormat(schema.Len()))
	if err != nil {
		return nil, err
	}
	return &RCWriter{groupWriter: gw, schema: schema, groupRows: groupRows, cols: make([][]byte, schema.Len())}, nil
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
	g := groupMeta{rows: rw.bufRows, chunkLens: make([]int64, len(rw.cols))}
	for i, chunk := range rw.cols {
		g.chunkLens[i] = int64(len(chunk))
	}
	if err := rw.writeGroup(g, rw.cols...); err != nil {
		return err
	}
	for i := range rw.cols {
		rw.cols[i] = rw.cols[i][:0]
	}
	rw.bufRows = 0
	return nil
}

// Close flushes and writes the footer.
func (rw *RCWriter) Close() error { return rw.close(rw.flushGroup) }

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
	return rcFormat(in.Schema.Len()).splits(ctx.FS, in.Dir)
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
	if err := in.resolve(ctx.FS); err != nil {
		return nil, err
	}
	r, s, err := openGroupSplit(split, ctx)
	if err != nil {
		return nil, err
	}
	return &rcReader{r: r, in: in, path: s.path, groups: s.groups}, nil
}

// rcReader iterates a split's rows, fetching only the projected columns'
// chunks one row group at a time. Every row is decoded into the same value
// slice (see mr.RecordReader).
type rcReader struct {
	r      *hdfs.Reader
	in     *RCInput
	path   string
	groups []groupMeta
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
			return records.Record{}, records.Record{}, false, fmt.Errorf("colstore: RC file %s: %w", rc.path, err)
		}
		rc.chunks[i] = rc.chunks[i][n:]
		rc.row.Set(i, v)
	}
	rc.left--
	return records.Record{}, rc.row, true, nil
}

func (rc *rcReader) loadGroup(g groupMeta) error {
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
