package colstore

import (
	"fmt"
	"sort"

	"clydesdale/internal/hdfs"
	"clydesdale/internal/records"
)

// Background compaction. Roll-in batches arrive as many small partitions —
// good for ingest latency, bad for scans (per-partition schedule and decode
// overhead) and bad for zone maps (arrival-ordered batches have wide
// ranges). The compactor rewrites small committed partitions into large
// re-sorted ones: rows are re-clustered by a clustering column (for SSB,
// lo_orderdate — restoring the arrival-order property pruning depends on),
// written to full-size staged partitions with fresh zone-map sidecars, and
// swapped in atomically; old partitions retire in the same swap and are
// physically deleted only after pinned snapshots drain. The row multiset is
// unchanged, so compaction invalidates no derived state — a query racing it
// reads either the old partitions or the new ones, same answer.

// CompactOptions configures one compaction pass.
type CompactOptions struct {
	// MinRows marks a partition small enough to compact (strictly fewer
	// rows); <= 0 uses DefaultPartitionRows / 4. Partitions without stats
	// are never touched.
	MinRows int64
	// TargetRows sizes the rewritten partitions; <= 0 uses
	// DefaultPartitionRows.
	TargetRows int64
	// ClusterBy, when set, re-sorts the gathered rows by this column before
	// rewriting, so the new partitions carry tight zone maps on it.
	ClusterBy string
}

// CompactResult summarizes one compaction pass.
type CompactResult struct {
	Rows      int64    // rows rewritten
	Retired   []string // small partitions swapped out
	Published []string // full-size partitions swapped in
}

// Compact runs one compaction pass over the table at dir: gather every
// committed partition smaller than MinRows (needs at least two to be worth
// a rewrite), optionally re-sort by ClusterBy, stage full-size replacement
// partitions, and commit the exchange in one atomic swap. It holds the
// registry's writer lock throughout, so the partitions it lists stay put
// without a pin. Returns an empty result when there is nothing to compact.
func Compact(reg *Snapshots, dir string, opts CompactOptions) (*CompactResult, error) {
	reg.write.Lock()
	defer reg.write.Unlock()
	if opts.MinRows <= 0 {
		opts.MinRows = DefaultPartitionRows / 4
	}
	if opts.TargetRows <= 0 {
		opts.TargetRows = DefaultPartitionRows
	}
	fs := reg.fs
	parts, err := ListPartitions(fs, dir)
	if err != nil {
		return nil, err
	}
	schema, err := ReadSchema(fs, dir)
	if err != nil {
		return nil, err
	}
	var small []string
	for _, pdir := range parts {
		ps, err := ReadPartitionStats(fs, pdir)
		if err != nil || ps == nil {
			continue // no stats, no verdict: leave the partition alone
		}
		if ps.Rows < opts.MinRows {
			small = append(small, pdir)
		}
	}
	if len(small) < 2 {
		return &CompactResult{}, nil
	}

	var rows []records.Record
	for _, pdir := range small {
		if err := ScanCIFPartition(fs, pdir, schema, "", func(r records.Record) error {
			rows = append(rows, r)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if opts.ClusterBy != "" {
		ci := schema.Index(opts.ClusterBy)
		if ci < 0 {
			return nil, fmt.Errorf("colstore: compact %s: no column %s to cluster by", dir, opts.ClusterBy)
		}
		sort.SliceStable(rows, func(i, j int) bool {
			return rows[i].At(ci).Compare(rows[j].At(ci)) < 0
		})
	}

	w, err := StagePartitions(fs, dir, opts.TargetRows)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		if err := w.Append(r); err != nil {
			w.DiscardPending()
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		w.DiscardPending()
		return nil, err
	}
	// The commit point: new partitions in, small ones out, atomically.
	if err := reg.swap(dir, w.Pending(), small, false); err != nil {
		return nil, err
	}
	return &CompactResult{Rows: w.Rows(), Retired: small, Published: w.Pending()}, nil
}

// ExpireBefore retires every partition whose zone map proves the named
// int64 column is everywhere below cutoff — date-range retention without
// rewriting anything. Partitions lacking stats, containing nulls, or merely
// straddling the cutoff are kept: retention never drops a row it cannot
// prove expired. Returns the retired partitions; their physical deletion
// waits for pinned snapshots as usual. Holds the registry's writer lock.
func ExpireBefore(reg *Snapshots, dir, col string, cutoff int64) ([]string, error) {
	reg.write.Lock()
	defer reg.write.Unlock()
	parts, err := ListPartitions(reg.fs, dir)
	if err != nil {
		return nil, err
	}
	var expired []string
	for _, pdir := range parts {
		ps, err := ReadPartitionStats(reg.fs, pdir)
		if err != nil || ps == nil {
			continue
		}
		for i := range ps.Cols {
			c := &ps.Cols[i]
			if c.Name != col {
				continue
			}
			if c.Nulls == 0 && c.Max.Kind() == records.KindInt64 && c.Max.Int64() < cutoff {
				expired = append(expired, pdir)
			}
			break
		}
	}
	if len(expired) == 0 {
		return nil, nil
	}
	if err := reg.swap(dir, nil, expired, true); err != nil {
		return nil, err
	}
	return expired, nil
}

// ScanCIFPartition streams one partition's rows to fn on the driver,
// decoding every schema column. Records own their values — fn may retain
// them.
func ScanCIFPartition(fs *hdfs.FileSystem, pdir string, schema *records.Schema, clientNode string, fn func(records.Record) error) error {
	decs, nrows, err := openPartition(pdir, schema, func(path string) ([]byte, error) {
		return fs.ReadAll(path, clientNode)
	})
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
