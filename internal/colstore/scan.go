package colstore

import (
	"clydesdale/internal/hdfs"
	"clydesdale/internal/obs"
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
	if err := in.resolve(fs); err != nil {
		return err
	}
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
	rr := in.reader(r, path, groups)
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

// ScanCIFPartition streams one partition's rows to fn on the driver,
// decoding every schema column. Records own their values — fn may retain
// them.
func ScanCIFPartition(fs *hdfs.FileSystem, pdir string, schema *records.Schema, clientNode string, fn func(records.Record) error) error {
	decs, nrows, err := openPartition(fs, columnPaths(pdir, schema), schema, clientNode, obs.SpanContext{})
	if err != nil {
		return err
	}
	// Packed columns are unpacked a block at a time and boxed from the typed
	// vectors; a plain stream is read value by value, because it may hold
	// nulls, which a vector cannot carry.
	block := records.NewRowBlock(schema, forFrameRows)
	for at := 0; at < nrows; at += forFrameRows {
		n := min(forFrameRows, nrows-at)
		block.Reset()
		for i, dec := range decs {
			if dec.enc != EncPlain {
				if err := dec.decodeInto(block.Col(i), n); err != nil {
					return err
				}
			}
		}
		for r := 0; r < n; r++ {
			vals := make([]records.Value, len(decs))
			for i, dec := range decs {
				if dec.enc != EncPlain {
					vals[i] = block.Col(i).Value(r)
				} else if vals[i], err = dec.next(); err != nil {
					return err
				}
			}
			if err := fn(records.Make(schema, vals...)); err != nil {
				return err
			}
		}
	}
	return nil
}

// ScanCIFTable streams every committed partition's rows to fn in partition
// order — the driver-side full scan tests and oracles compare against.
func ScanCIFTable(fs *hdfs.FileSystem, dir, clientNode string, fn func(records.Record) error) error {
	schema, err := ReadSchema(fs, dir)
	if err != nil {
		return err
	}
	parts, err := ListPartitions(fs, dir)
	if err != nil {
		return err
	}
	for _, pdir := range parts {
		if err := ScanCIFPartition(fs, pdir, schema, clientNode, fn); err != nil {
			return err
		}
	}
	return nil
}
