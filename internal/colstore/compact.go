package colstore

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"clydesdale/internal/hdfs"
	"clydesdale/internal/obs"
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
// partitions, and commit the exchange in one atomic swap. The gathering —
// stats, the decode and the sort — reads a pinned snapshot without the
// registry's writer lock, so roll-ins publish beside it; the lock is held
// only to stage and swap. If by then another writer (a compaction, a
// retention) has retired any of the inputs, the pass stages nothing and
// returns an empty result, as it does when there is nothing to compact.
//
// The rows never leave column vectors: every input column is decoded into
// one block, the ClusterBy vector orders a permutation of its rows, and
// the staged partitions are gathered through that permutation a partition
// at a time. Rows with equal ClusterBy values keep their input order, so
// the files are those a stable sort of the rows would write.
func Compact(reg *Snapshots, dir string, opts CompactOptions) (*CompactResult, error) {
	if opts.MinRows <= 0 {
		opts.MinRows = DefaultPartitionRows / 4
	}
	if opts.TargetRows <= 0 {
		opts.TargetRows = DefaultPartitionRows
	}
	fs := reg.fs
	// The pin keeps the inputs on disk while they are read, whoever
	// retires them meanwhile.
	sn, err := reg.Acquire(dir)
	if err != nil {
		return nil, err
	}
	defer sn.Release()
	schema, err := ReadSchema(fs, dir)
	if err != nil {
		return nil, err
	}
	var small []string
	var rows int64
	for _, pdir := range sn.Parts {
		ps, err := ReadPartitionStats(fs, pdir)
		if err != nil || ps == nil {
			continue // no stats, no verdict: leave the partition alone
		}
		if ps.Rows < opts.MinRows {
			small = append(small, pdir)
			rows += ps.Rows
		}
	}
	if len(small) < 2 {
		return &CompactResult{}, nil
	}

	all, err := decodePartitions(fs, small, schema, int(rows))
	if err != nil {
		return nil, err
	}
	perm := make([]int32, all.Len())
	for i := range perm {
		perm[i] = int32(i)
	}
	if opts.ClusterBy != "" {
		ci := schema.Index(opts.ClusterBy)
		if ci < 0 {
			return nil, fmt.Errorf("colstore: compact %s: no column %s to cluster by", dir, opts.ClusterBy)
		}
		clusterOrder(perm, all.Col(ci))
	}

	held := reg.lockWriter()
	defer reg.unlockWriter(held)
	if committed := reg.partitions(dir); slices.ContainsFunc(small, func(p string) bool { return !slices.Contains(committed, p) }) {
		return &CompactResult{}, nil // another writer retired one first
	}
	w, err := StagePartitions(fs, dir, opts.TargetRows)
	if err != nil {
		return nil, err
	}
	if err := w.appendRows(all, perm); err != nil {
		w.DiscardPending()
		return nil, err
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

// decodePartitions decodes every column of the partitions, in order, into
// one block of the given row capacity, through the decoders a scan uses. A
// null in a plain stream fails it: a vector has no null mask, and a
// rewrite would store the null as its column's zero.
func decodePartitions(fs *hdfs.FileSystem, parts []string, schema *records.Schema, capacity int) (*records.RowBlock, error) {
	all := records.NewRowBlock(schema, capacity)
	n := 0
	for _, pdir := range parts {
		decs, rows, err := openPartition(fs, columnPaths(pdir, schema), schema, "", obs.SpanContext{})
		if err != nil {
			return nil, err
		}
		for i, dec := range decs {
			if err := dec.decodeInto(all.Col(i), rows); err != nil {
				return nil, err
			}
			if dec.nulls > 0 {
				return nil, fmt.Errorf("colstore: %s: %d nulls in column %s, which a column vector cannot carry", pdir, dec.nulls, schema.Field(i).Name)
			}
		}
		n += rows
		all.SetLen(n)
	}
	return all, nil
}

// clusterOrder sorts perm, row numbers of cv, by cv's values, equal values
// in row order: the order a stable sort of the rows by the column gives.
func clusterOrder(perm []int32, cv *records.ColumnVector) {
	switch cv.Kind {
	case records.KindInt64:
		sortRowsBy(perm, cv.Ints, cmp.Compare[int64])
	case records.KindFloat64:
		sortRowsBy(perm, cv.Floats, cmp.Compare[float64])
	case records.KindString:
		sortRowsBy(perm, cv.Strs, strings.Compare)
	case records.KindBool: // false before true
		sortRowsBy(perm, cv.Bools, func(a, b bool) int {
			if a == b {
				return 0
			}
			if a {
				return 1
			}
			return -1
		})
	}
}

func sortRowsBy[T any](perm []int32, vals []T, compare func(a, b T) int) {
	slices.SortFunc(perm, func(a, b int32) int {
		if c := compare(vals[a], vals[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// ExpireBefore retires every partition whose zone map proves the named
// int64 column is everywhere below cutoff — date-range retention without
// rewriting anything. Partitions lacking stats, containing nulls, or merely
// straddling the cutoff are kept: retention never drops a row it cannot
// prove expired. Returns the retired partitions; their physical deletion
// waits for pinned snapshots as usual. Holds the registry's writer lock.
func ExpireBefore(reg *Snapshots, dir, col string, cutoff int64) ([]string, error) {
	held := reg.lockWriter()
	defer reg.unlockWriter(held)
	var expired []string
	for _, pdir := range reg.partitions(dir) {
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
