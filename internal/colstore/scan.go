package colstore

import (
	"io"

	"clydesdale/internal/hdfs"
	"clydesdale/internal/records"
)

// ScanRowTable reads every row of a row-format table directly (outside any
// MapReduce job), charging I/O to clientNode: whatever data files the table
// holds when it is called. Reads on behalf of a query take one version's
// column image instead (EncodeRowTable).
func ScanRowTable(fs *hdfs.FileSystem, dir, clientNode string, fn func(records.Record) error) error {
	schema, err := ReadSchema(fs, dir)
	if err != nil {
		return err
	}
	return scanRowFiles(fs, listDataFiles(fs, dir), clientNode, schema, fn)
}

func rowPartPaths(dir string, version uint64) []string {
	paths := make([]string, version)
	for i := range paths {
		paths[i] = rowPartPath(dir, uint64(i))
	}
	return paths
}

func scanRowFiles(fs *hdfs.FileSystem, paths []string, clientNode string, schema *records.Schema, fn func(records.Record) error) error {
	for _, path := range paths {
		r, err := fs.Open(path, clientNode)
		if err != nil {
			return err
		}
		groups, err := readFooter(r, path)
		if err != nil {
			r.Close()
			return err
		}
		// One buffer reused across groups, regrown only when a group is
		// larger than any seen before. Safe because DecodeRecord copies
		// string bytes out of the buffer.
		var buf []byte
		for _, g := range groups {
			if int64(cap(buf)) < g.length {
				buf = make([]byte, g.length)
			}
			buf = buf[:g.length]
			if _, err := r.ReadAt(buf, g.offset); err != nil && err != io.EOF {
				r.Close()
				return err
			}
			pos := 0
			for pos < len(buf) {
				rec, n, err := records.DecodeRecord(buf[pos:], schema)
				if err != nil {
					r.Close()
					return err
				}
				pos += n
				if err := fn(rec); err != nil {
					r.Close()
					return err
				}
			}
		}
		if err := r.Close(); err != nil {
			return err
		}
	}
	return nil
}
