package colstore

import (
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

// scanRowFiles reads the row files at paths whole, charging I/O to
// clientNode, and hands fn a copy of each row.
func scanRowFiles(fs *hdfs.FileSystem, paths []string, clientNode string, schema *records.Schema, fn func(records.Record) error) error {
	in := &RowInput{Schema: schema}
	for _, path := range paths {
		if err := scanRowFile(fs, path, clientNode, in, fn); err != nil {
			return err
		}
	}
	return nil
}

func scanRowFile(fs *hdfs.FileSystem, path, clientNode string, in *RowInput, fn func(records.Record) error) error {
	r, err := fs.Open(path, clientNode)
	if err != nil {
		return err
	}
	defer r.Close()
	groups, err := rowFormat.readFooter(r, path)
	if err != nil {
		return err
	}
	rr := &rowReader{r: r, in: in, path: path, groups: groups}
	for {
		_, row, ok, err := rr.Next()
		if err != nil || !ok {
			return err
		}
		if err := fn(row.Clone()); err != nil {
			return err
		}
	}
}
