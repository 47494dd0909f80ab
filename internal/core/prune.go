package core

import (
	"clydesdale/internal/colstore"
	"clydesdale/internal/expr"
	"clydesdale/internal/records"
)

// Driver-side FK-range hint derivation for zone-map pruning. SSB fact
// predicates alone rarely refute a partition (discount, quantity, and the
// like are uniform), but dimension predicates are highly selective and the
// star join is an equality join on the dimension primary key. Scanning a
// filtered dimension gives the [min, max] range of qualifying keys, and
// BETWEEN(fact_fk, min, max) is implied by the join: a fact row whose FK
// falls outside the range cannot survive the probe. Handing these ranges to
// CIFInput.PrunePreds lets zone maps drop partitions whose FK ranges are
// disjoint — for the arrival-ordered lo_orderdate this is what turns a
// "d_year = 1993" dimension filter into whole skipped fact partitions (the
// range-pruned-reads idea of cascading map-side joins).
//
// The hints are pruning-only: they are never evaluated per row, and a hint
// that is merely a superset of the qualifying keys (ranges over sparse key
// sets, e.g. YYYYMMDD date keys) is still sound.

// The same driver-side scan also yields the exact qualifying key set, which
// feeds the second pushdown: a bloom filter over surviving keys handed to
// CIFInput.KeyFilters (semi-join filter pushdown). The hint prunes whole
// partitions; the bloom kills individual fact rows inside surviving
// partitions before their columns materialize.

// bloomMaxSelectivity gates bloom pushdown: a filter most of whose
// dimension passes the predicate can only drop the complementary fraction
// of fact rows, which doesn't pay for testing every row (e.g. the broad
// Q3.x date filter keeps ~86% of the date dimension). Filters are built
// only when qualifying keys / total keys is at or below this.
const bloomMaxSelectivity = 0.5

// dimScan is what the driver's one scan of a dimension version under one
// build spec yields: the qualifying keys' count and range (→ prune hint),
// their bloom filter when the predicate is selective enough to pay for it,
// and the bytes of the hash table a node builds from the same rows (→
// admission). Memoized per (table, version, DimSpec.Fingerprint) in
// Engine.scans.
type dimScan struct {
	keys   int64
	lo, hi int64
	bloom  *colstore.KeyBloom
	bytes  int64
}

// scanDim derives a spec's dimScan from one walk of rows. bytes mirrors the
// open-addressing layout exactly — 16 bytes per slot and a tag byte at the
// capacity the build ends with, plus the aux-value arena — so it equals the
// MemBytes a real build reserves.
func scanDim(d *DimSpec, rows func(fn func(records.Record) error) error) (*dimScan, error) {
	ds := &dimScan{}
	var keys []int64
	var total, entries, auxBytes int64
	err := d.Select(func(fn func(records.Record) error) error {
		return rows(func(r records.Record) error {
			total++
			return fn(r)
		})
	}, func(pk records.Value, aux []records.Value) error {
		entries++
		for _, v := range aux {
			auxBytes += v.MemSize()
		}
		if pk.Kind() != records.KindInt64 {
			return nil // no such table gets built; nothing to push down
		}
		k := pk.Int64()
		if len(keys) == 0 || k < ds.lo {
			ds.lo = k
		}
		if len(keys) == 0 || k > ds.hi {
			ds.hi = k
		}
		keys = append(keys, k)
		return nil
	})
	if err != nil {
		return nil, err
	}
	ds.keys = int64(len(keys))
	ds.bytes = dimTableCapacity(entries)*17 + auxBytes
	if len(keys) > 0 && float64(len(keys)) <= bloomMaxSelectivity*float64(total) {
		ds.bloom = colstore.NewKeyBloom(keys, colstore.DefaultBloomBitsPerKey)
	}
	return ds, nil
}

// dimScanFor returns the scan products for the version of the dimension the
// spec names, scanning that version's master copy once per fingerprint: the
// one place the engine and the serving layer read a dimension on the driver.
func (e *Engine) dimScanFor(d *DimSpec) (*dimScan, error) {
	key := d.Fingerprint()
	if ds, ok := e.scans.Get(d.Table, d.Version, key); ok {
		return ds, nil
	}
	dir, err := e.cat.DimDir(d.Table)
	if err != nil {
		return nil, err
	}
	ds, err := scanDim(d, func(fn func(records.Record) error) error {
		return colstore.ScanRowTableAt(e.mr.FS(), dir, d.Version, "", fn)
	})
	if err == nil {
		e.scans.Put(d.Table, d.Version, key, ds)
	}
	return ds, err
}

// DimTableBytes is the memory the spec's hash table occupies on a node, to
// the byte (see scanDim): what admission control charges for a table no
// node holds yet.
func (e *Engine) DimTableBytes(d *DimSpec) (int64, error) {
	ds, err := e.dimScanFor(d)
	if err != nil {
		return 0, err
	}
	return ds.bytes, nil
}

// DimScansHeld counts the driver-side dimension scans the engine has
// memoized: one per (dimension, build spec) at each table's newest version.
func (e *Engine) DimScansHeld() int { return e.scans.Len() }

// pushable returns the scan of a filtered dimension with qualifying keys,
// nil for one that can push nothing into the fact scan (no predicate, no
// schema, a scan error, no key) — pruning and filtering just see less.
func (e *Engine) pushable(d *DimSpec) *dimScan {
	if d.Pred == nil || d.Schema == nil {
		return nil
	}
	if ds, err := e.dimScanFor(d); err == nil && ds.keys > 0 {
		return ds
	}
	return nil
}

// fkPruneHints returns one BETWEEN hint per dimension whose qualifying
// primary keys are non-empty.
func (e *Engine) fkPruneHints(dims []DimSpec) []expr.Pred {
	var hints []expr.Pred
	for i := range dims {
		if ds := e.pushable(&dims[i]); ds != nil {
			hints = append(hints, expr.Between(expr.Col(dims[i].FactFK), records.Int(ds.lo), records.Int(ds.hi)))
		}
	}
	return hints
}

// semiJoinFilters returns one KeyFilter per dimension whose predicate is
// selective enough to pay for per-row filtering (see bloomMaxSelectivity).
// The filters are derived on the driver before the job is submitted — they
// are plain immutable state shipped with the input format, so retried,
// speculative, and failed-over task attempts all see the same filters.
func (e *Engine) semiJoinFilters(dims []DimSpec) []colstore.KeyFilter {
	var filters []colstore.KeyFilter
	for i := range dims {
		if ds := e.pushable(&dims[i]); ds != nil && ds.bloom != nil {
			filters = append(filters, colstore.KeyFilter{Column: dims[i].FactFK, Keys: ds.bloom})
		}
	}
	return filters
}

// factFKs lists the fact-side join keys, the columns the probe needs before
// any selection (CIFInput.EagerColumns).
func factFKs(dims []DimSpec) []string {
	fks := make([]string, len(dims))
	for i := range dims {
		fks[i] = dims[i].FactFK
	}
	return fks
}
