package ssb

import (
	"fmt"

	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/records"
)

// Layout records where a generated SSB dataset lives in HDFS.
type Layout struct {
	Root string
	// FactCIF is the lineorder table in CIF (Clydesdale's format).
	FactCIF string
	// FactRC is the lineorder table in RCFile (Hive's format); empty when
	// not materialized.
	FactRC string
	// Dims maps dimension table name → row-table directory (the "master
	// copy" in HDFS, §4).
	Dims map[string]string
	// Rows per table.
	Rows map[string]int64
}

// LoadOptions tunes dataset materialization.
type LoadOptions struct {
	// PartitionRows is the CIF partition size (rows). <= 0 uses a size that
	// yields several partitions per worker.
	PartitionRows int64
	// RCGroupRows is the RCFile row-group size. <= 0 uses 8192.
	RCGroupRows int64
	// SkipRC skips the RCFile fact copy (Clydesdale-only workloads).
	SkipRC bool
}

// Load generates the SSB dataset at the generator's scale factor and
// materializes it in HDFS: the fact table in CIF (and optionally RCFile),
// dimensions as row tables.
func Load(fs *hdfs.FileSystem, gen *Generator, root string, opts LoadOptions) (*Layout, error) {
	if opts.PartitionRows <= 0 {
		workers := int64(len(fs.Cluster().Nodes()))
		// Aim for ~4 partitions per worker so multi-splits and locality have
		// something to work with.
		opts.PartitionRows = gen.LineorderRows() / (4 * workers)
		if opts.PartitionRows < 1024 {
			opts.PartitionRows = 1024
		}
	}
	lay := &Layout{
		Root:    root,
		FactCIF: root + "/lineorder.cif",
		Dims:    make(map[string]string),
		Rows:    make(map[string]int64),
	}

	n, err := colstore.WriteCIFTable(fs, lay.FactCIF, LineorderSchema, opts.PartitionRows,
		func(emit func(records.Record) error) error { return gen.Each(TableLineorder, emit) })
	if err != nil {
		return nil, fmt.Errorf("ssb: loading fact CIF: %w", err)
	}
	lay.Rows[TableLineorder] = n

	if !opts.SkipRC {
		lay.FactRC = root + "/lineorder.rc"
		if _, err := colstore.WriteRCTable(fs, lay.FactRC, LineorderSchema, opts.RCGroupRows,
			func(emit func(records.Record) error) error { return gen.Each(TableLineorder, emit) }); err != nil {
			return nil, fmt.Errorf("ssb: loading fact RCFile: %w", err)
		}
	}

	for _, t := range []string{TableCustomer, TableSupplier, TablePart, TableDate} {
		dir := root + "/" + t
		n, err := colstore.WriteRowTable(fs, dir, SchemaOf(t),
			func(emit func(records.Record) error) error { return gen.Each(t, emit) })
		if err != nil {
			return nil, fmt.Errorf("ssb: loading dimension %s: %w", t, err)
		}
		lay.Dims[t] = dir
		lay.Rows[t] = n
	}
	return lay, nil
}

// Catalog exposes the layout to the query engines.
func (l *Layout) Catalog() *core.Catalog {
	return &core.Catalog{
		FactName:   TableLineorder,
		FactDir:    l.FactCIF,
		FactSchema: LineorderSchema,
		DimDirs:    l.Dims,
		DimSchemas: map[string]*records.Schema{
			TableCustomer: CustomerSchema,
			TableSupplier: SupplierSchema,
			TablePart:     PartSchema,
			TableDate:     DateSchema,
		},
	}
}

// RCCatalog is like Catalog but points the fact table at the RCFile copy
// (the storage the Hive baseline scans).
func (l *Layout) RCCatalog() *core.Catalog {
	c := l.Catalog()
	c.FactDir = l.FactRC
	return c
}
