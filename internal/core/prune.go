package core

import (
	"slices"

	"clydesdale/internal/colstore"
	"clydesdale/internal/expr"
	"clydesdale/internal/records"
)

// Driver-side FK-range hint derivation for zone-map pruning. SSB fact
// predicates alone rarely refute a partition (discount, quantity, and the
// like are uniform), but dimension predicates are highly selective and the
// star join is an equality join on the dimension primary key. The table the
// driver builds for a filtered dimension gives the [min, max] range of its
// keys, and BETWEEN(fact_fk, min, max) is implied by the join: a fact row
// whose FK falls outside the range cannot survive the probe. Handing these
// ranges to CIFInput.PrunePreds lets zone maps drop partitions whose FK
// ranges are disjoint — for the arrival-ordered lo_orderdate this is what
// turns a "d_year = 1993" dimension filter into whole skipped fact
// partitions (the range-pruned-reads idea of cascading map-side joins).
//
// The hints are pruning-only: they are never evaluated per row, and a hint
// that is merely a superset of the qualifying keys (ranges over sparse key
// sets, e.g. YYYYMMDD date keys) is still sound.

// The same table also yields the exact qualifying key set, which feeds the
// second pushdown: a bloom filter over its keys handed to
// CIFInput.KeyFilters (semi-join filter pushdown). The hint prunes whole
// partitions; the bloom kills individual fact rows inside surviving
// partitions before their columns materialize.

// bloomMaxSelectivity gates bloom pushdown: a filter most of whose
// dimension passes the predicate can only drop the complementary fraction
// of fact rows, which doesn't pay for testing every row (e.g. the broad
// Q3.x date filter keeps ~86% of the date dimension). Filters are built
// only when at most this fraction of the dimension's rows qualifies.
const bloomMaxSelectivity = 0.5

// dimScan is what the driver derives from the table one build spec makes
// of one dimension version: the table's key count and range (→ prune hint),
// the bloom filter of its keys when the predicate is selective enough to pay
// for it, and its MemBytes (→ admission). Memoized per (table, version,
// DimSpec.Fingerprint) in Engine.scans.
type dimScan struct {
	keys   int64
	lo, hi int64
	bloom  *colstore.KeyBloom
	bytes  int64
}

// dimScanFor returns the driver's products for the version of the dimension
// the spec names: the one place the engine and the serving layer read a
// dimension on the driver. The version's column image is read from the HDFS
// master once, charged to the unlocated client, and every new fingerprint
// takes its table from the engine's memo (tableFrom), built from the image
// unless a node built it first; the nodes' builds then take it from there.
func (e *Engine) dimScanFor(d *DimSpec) (*dimScan, error) {
	key := d.Fingerprint()
	if ds, ok := e.scans.Get(d.Table, d.Version, key); ok {
		return ds, nil
	}
	dir, err := e.cat.DimDir(d.Table)
	if err != nil {
		return nil, err
	}
	img, ok := e.images.Get(d.Table, d.Version, "")
	if !ok {
		if img, err = colstore.EncodeRowTable(e.mr.FS(), dir, d.Version, ""); err != nil {
			return nil, err
		}
		e.images.Put(d.Table, d.Version, "", img)
	}
	set, err := colstore.OpenColumnSet(img, d.Schema)
	if err != nil {
		return nil, err
	}
	h, err := tableFrom(&e.built, dir, d.Version, d, set)
	if err != nil {
		return nil, err
	}
	ds := &dimScan{keys: int64(h.n), bytes: h.MemBytes}
	if h.n > 0 {
		keys := make([]int64, 0, h.n)
		h.Each(func(k int64, _ []records.Value) { keys = append(keys, k) })
		ds.lo, ds.hi = slices.Min(keys), slices.Max(keys)
		if float64(h.Stats.RowsKept) <= bloomMaxSelectivity*float64(h.Stats.RowsScanned) {
			ds.bloom = colstore.NewKeyBloom(keys, colstore.DefaultBloomBitsPerKey)
		}
	}
	e.scans.Put(d.Table, d.Version, key, ds)
	return ds, nil
}

// DimTableBytes is the memory the spec's hash table occupies on a node, to
// the byte (the driver builds it, see dimScanFor): what admission control
// charges for a table no node holds yet.
func (e *Engine) DimTableBytes(d *DimSpec) (int64, error) {
	ds, err := e.dimScanFor(d)
	if err != nil {
		return 0, err
	}
	return ds.bytes, nil
}

// DimScansHeld counts what the engine holds of the dimensions: one column
// image per dimension, and one dimScan and one built table per (dimension,
// build spec), each at the table's newest version.
func (e *Engine) DimScansHeld() int { return e.images.Len() + e.scans.Len() + e.built.Len() }

// pushdowns returns the fact-scan pushdowns of the dimensions dims: one
// BETWEEN prune hint per filtered dimension with qualifying keys, and one
// KeyFilter per such dimension whose predicate is selective enough to pay
// for per-row filtering (see bloomMaxSelectivity). A dimension without a
// predicate or schema, or whose build fails, pushes nothing — pruning and
// filtering just see less. Both are derived on the driver before the job is
// submitted: plain immutable state shipped with the input format, so
// retried, speculative, and failed-over task attempts all see the same ones.
func (e *Engine) pushdowns(dims []DimSpec) (hints []expr.Pred, filters []colstore.KeyFilter) {
	for i := range dims {
		d := &dims[i]
		if d.Pred == nil || d.Schema == nil {
			continue
		}
		ds, err := e.dimScanFor(d)
		if err != nil || ds.keys == 0 {
			continue
		}
		hints = append(hints, expr.Between(expr.Col(d.FactFK), records.Int(ds.lo), records.Int(ds.hi)))
		if ds.bloom != nil {
			filters = append(filters, colstore.KeyFilter{Column: d.FactFK, Keys: ds.bloom})
		}
	}
	return hints, filters
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
