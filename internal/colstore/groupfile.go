package colstore

import (
	"encoding/binary"
	"fmt"
	"io"

	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
)

// Group files: the framing row files and RCFiles share,
//
//	[group bytes]*  footer  footerLen(uint32 LE)  magic
//
// where the footer is a uvarint group count, then one tuple of uvarints per
// group. A format fixes its magic, the order of its tuple and the body of
// its groups (rowfile.go, rcfile.go). A split is the groups that start in
// one HDFS block, read on a node that holds the block.

// groupMeta is one group of a group file: its bytes, its rows and, in an
// RCFile, the length of each column's chunk (they sum to length).
type groupMeta struct {
	offset    int64
	length    int64
	rows      int64
	chunkLens []int64
}

// groupFormat is what a group-file format fixes beyond the framing.
type groupFormat struct {
	name  string // names the file in errors
	magic [4]byte
	width int // footer uvarints per group
	// tuple appends a group's footer values in the format's order; group
	// reads them back.
	tuple func(dst []int64, g groupMeta) []int64
	group func(vals []int64) groupMeta
}

// groupWriter writes a group file: the groups its format hands it, then, on
// close, the footer and the tail.
type groupWriter struct {
	w      *hdfs.Writer
	format groupFormat
	offset int64
	groups []groupMeta
	closed bool
}

func createGroupFile(fs *hdfs.FileSystem, path, writerNode string, format groupFormat) (groupWriter, error) {
	w, err := fs.Create(path, writerNode)
	return groupWriter{w: w, format: format}, err
}

// writeGroup appends one group, its chunks back to back. g carries the
// group's rows and chunk lengths; its place in the file is set here.
func (gw *groupWriter) writeGroup(g groupMeta, chunks ...[]byte) error {
	g.offset = gw.offset
	for _, c := range chunks {
		if _, err := gw.w.Write(c); err != nil {
			return err
		}
		g.length += int64(len(c))
	}
	gw.offset += g.length
	gw.groups = append(gw.groups, g)
	return nil
}

// close flushes the format's last group, then writes the footer and the
// tail. Closing twice does nothing.
func (gw *groupWriter) close(flush func() error) error {
	if gw.closed {
		return nil
	}
	gw.closed = true
	if err := flush(); err != nil {
		return err
	}
	footer := binary.AppendUvarint(nil, uint64(len(gw.groups)))
	var vals []int64
	for _, g := range gw.groups {
		vals = gw.format.tuple(vals[:0], g)
		for _, v := range vals {
			footer = binary.AppendUvarint(footer, uint64(v))
		}
	}
	footer = binary.LittleEndian.AppendUint32(footer, uint32(len(footer)))
	if _, err := gw.w.Write(append(footer, gw.format.magic[:]...)); err != nil {
		return err
	}
	return gw.w.Close()
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

// readFooter loads and checks the footer of the group file at path; an
// error names the file.
func (f groupFormat) readFooter(r *hdfs.Reader, path string) ([]groupMeta, error) {
	var groups []groupMeta
	buf, err := readTail(r, f.magic)
	if err == nil {
		groups, err = f.decodeFooter(buf, r.Size()-8-int64(len(buf)))
	}
	if err != nil {
		return nil, fmt.Errorf("colstore: %s %s: %w", f.name, path, err)
	}
	return groups, nil
}

// decodeFooter parses a footer whose groups must lie within the dataLen
// bytes in front of it. Its counts size nothing until they are checked: a
// group takes at least width footer bytes, so a count beyond that share of
// the footer is refused; every value is at most dataLen, so a reader's
// buffers are too; and every group ends inside the data.
func (f groupFormat) decodeFooter(buf []byte, dataLen int64) ([]groupMeta, error) {
	n, read := binary.Uvarint(buf)
	if read <= 0 {
		return nil, fmt.Errorf("bad group count")
	}
	pos := read
	if n > uint64(len(buf)-pos)/uint64(f.width) {
		return nil, fmt.Errorf("%d groups claimed by a %d-byte footer", n, len(buf))
	}
	groups := make([]groupMeta, n)
	vals := make([]int64, f.width*int(n))
	for i := range groups {
		tuple := vals[i*f.width : (i+1)*f.width]
		for j := range tuple {
			v, r := binary.Uvarint(buf[pos:])
			if r <= 0 {
				return nil, fmt.Errorf("truncated footer")
			}
			if v > uint64(dataLen) {
				return nil, fmt.Errorf("group %d: %d exceeds the %d bytes of row groups", i, v, dataLen)
			}
			tuple[j] = int64(v)
			pos += r
		}
		// Every term of the end is at most dataLen, so it cannot wrap.
		groups[i] = f.group(tuple)
		if groups[i].offset+groups[i].length > dataLen {
			return nil, fmt.Errorf("group %d runs past the %d bytes of row groups", i, dataLen)
		}
	}
	return groups, nil
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

// groupSplit is a run of whole groups of one group file.
type groupSplit struct {
	path   string
	groups []groupMeta
	hosts  []string
	bytes  int64
}

// Locations implements mr.InputSplit.
func (s *groupSplit) Locations() []string { return s.hosts }

// Length implements mr.InputSplit.
func (s *groupSplit) Length() int64 { return s.bytes }

// splits cuts the group files under dir into one split per HDFS block a
// group starts in, located where that block is.
func (f groupFormat) splits(fs *hdfs.FileSystem, dir string) ([]mr.InputSplit, error) {
	blockSize := fs.BlockSize()
	var splits []mr.InputSplit
	for _, path := range listDataFiles(fs, dir) {
		r, err := fs.Open(path, "")
		if err != nil {
			return nil, err
		}
		groups, err := f.readFooter(r, path)
		r.Close()
		if err != nil {
			return nil, err
		}
		for lo := 0; lo < len(groups); {
			start := groups[lo].offset
			locs, err := fs.BlockLocations(path, start, 1)
			if err != nil {
				return nil, err
			}
			s := &groupSplit{path: path, bytes: groups[lo].length}
			if len(locs) > 0 {
				s.hosts = locs[0].Hosts
			}
			hi := lo + 1
			for ; hi < len(groups) && groups[hi].offset/blockSize == start/blockSize; hi++ {
				s.bytes += groups[hi].length
			}
			s.groups = groups[lo:hi]
			splits = append(splits, s)
			lo = hi
		}
	}
	return splits, nil
}

// openGroupSplit opens a split's file on the task's node, its reads traced
// under the task's innermost open phase (the map that opens its input).
func openGroupSplit(split mr.InputSplit, ctx *mr.TaskContext) (*hdfs.Reader, *groupSplit, error) {
	s, ok := split.(*groupSplit)
	if !ok {
		return nil, nil, fmt.Errorf("colstore: group-file input got %T split", split)
	}
	r, err := ctx.FS.Open(s.path, ctx.Node().ID())
	if err != nil {
		return nil, nil, err
	}
	r.SetTrace(ctx.TraceContext())
	return r, s, nil
}
