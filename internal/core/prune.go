package core

import (
	"clydesdale/internal/colstore"
	"clydesdale/internal/expr"
	"clydesdale/internal/hdfs"
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

// dimScan is what one driver-side scan of a filtered dimension yields:
// the FK-range prune hint and the semi-join bloom filter (either may be nil
// when underivable or not worth pushing). Memoized per (dimension version,
// fact FK, predicate) in Engine.hints.
type dimScan struct {
	hint  expr.Pred
	bloom *colstore.KeyBloom
}

// dimScanFor returns the scan products for the version of the dimension the
// spec names, scanning that version once per (predicate, fact FK). Returns
// nil for dimensions that can yield nothing (no predicate, no schema).
func (e *Engine) dimScanFor(d *DimSpec) *dimScan {
	if d.Pred == nil || d.Schema == nil {
		return nil
	}
	key := d.FactFK + "|" + d.Pred.String()
	ds, ok := e.hints.Get(d.Table, d.Version, key)
	if !ok {
		ds = deriveDimScan(e.mr.FS(), e.cat, d)
		e.hints.Put(d.Table, d.Version, key, ds)
	}
	return ds
}

// fkPruneHints returns one BETWEEN hint per dimension whose qualifying
// primary keys are non-empty. Dimensions that cannot yield a hint (no
// predicate, non-integer key, scan error) are skipped — pruning just sees
// fewer hints.
func (e *Engine) fkPruneHints(dims []DimSpec) []expr.Pred {
	var hints []expr.Pred
	for i := range dims {
		if ds := e.dimScanFor(&dims[i]); ds != nil && ds.hint != nil {
			hints = append(hints, ds.hint)
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
		d := &dims[i]
		if ds := e.dimScanFor(d); ds != nil && ds.bloom != nil {
			filters = append(filters, colstore.KeyFilter{Column: d.FactFK, Keys: ds.bloom})
		}
	}
	return filters
}

// deriveDimScan scans one version of a filtered dimension once, collecting the
// qualifying-key range (→ prune hint) and the qualifying keys themselves
// (→ bloom filter, when selective enough). Never returns nil; an empty
// dimScan means nothing was derivable.
func deriveDimScan(fs *hdfs.FileSystem, cat *Catalog, d *DimSpec) *dimScan {
	ds := &dimScan{}
	pkIdx := d.Schema.Index(d.DimPK)
	if pkIdx < 0 || d.Schema.Field(pkIdx).Kind != records.KindInt64 {
		return ds
	}
	dir, err := cat.DimDir(d.Table)
	if err != nil {
		return ds
	}
	pred, err := expr.CompilePred(d.Pred, d.Schema)
	if err != nil {
		return ds
	}
	var keys []int64
	var total int64
	var lo, hi int64
	err = colstore.ScanRowTableAt(fs, dir, d.Version, "", func(r records.Record) error {
		total++
		if !pred(r) {
			return nil
		}
		v := r.At(pkIdx).Int64()
		if len(keys) == 0 {
			lo, hi = v, v
		} else {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		keys = append(keys, v)
		return nil
	})
	if err != nil || len(keys) == 0 {
		return ds
	}
	ds.hint = expr.Between(expr.Col(d.FactFK), records.Int(lo), records.Int(hi))
	if float64(len(keys)) <= bloomMaxSelectivity*float64(total) {
		ds.bloom = colstore.NewKeyBloom(keys, colstore.DefaultBloomBitsPerKey)
	}
	return ds
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
