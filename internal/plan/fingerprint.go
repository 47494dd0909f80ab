package plan

import (
	"sort"
	"strings"

	"clydesdale/internal/expr"
)

// Query fingerprinting for result caching. A CacheKey is the canonical
// identity of a decomposed plan, split into two parts: the Skeleton (fact
// table, join edges, aggregate, grouping — everything except row predicates
// and output ordering) and the normalized predicate conjunct set. Two
// queries with equal fingerprints compute the same result multiset, however
// their dimensions were declared or their AND-trees nested; ordering is
// deliberately excluded because a cached result can be re-sorted per query.
//
// The split also gives subsumption its shape: a query whose skeleton matches
// a cached one and whose conjuncts are a superset asks for a strict subset
// of the cached groups, and when every extra conjunct reads only group-by
// columns, the narrower answer is a post-filter of the cached rows (each
// group row already carries the full SUM for that group).

// CacheKey is the canonical cache identity of a decomposed plan.
type CacheKey struct {
	// Skeleton identifies everything but the predicates and the ordering:
	// the fact table, the join edges sorted by dimension table, the
	// aggregate expression and name, and the group-by list (order kept —
	// it fixes the result schema).
	Skeleton string
	// Conjuncts are the normalized top-level AND factors of every predicate
	// in the plan (fact filter and each dimension filter pooled together —
	// column names are globally unique, so a conjunct's owner is implied),
	// sorted by their canonical rendering.
	Conjuncts []string
	// ConjPreds are the predicate trees behind Conjuncts, index-aligned.
	ConjPreds []expr.Pred
	// GroupBy is the plan's group-by list.
	GroupBy []string
	// Tables lists every table the plan reads (Shape.Tables): the tables
	// whose versions a cached result is labelled with.
	Tables []string
}

// KeyOf canonicalizes a decomposed shape into its cache key.
func KeyOf(sh *Shape) CacheKey {
	k := CacheKey{
		GroupBy: append([]string(nil), sh.GroupBy...),
		Tables:  sh.Tables(),
	}

	type conj struct {
		s string
		p expr.Pred
	}
	var conjs []conj
	addPred := func(p expr.Pred) {
		for _, c := range expr.Conjuncts(p) {
			conjs = append(conjs, conj{s: c.String(), p: c})
		}
	}
	addPred(sh.FactPred)

	// Join edges sorted by dimension table name: declaration order does not
	// change the join result, so it must not change the key.
	edges := make([]string, 0, len(sh.Joins))
	for i := range sh.Joins {
		e := &sh.Joins[i]
		edges = append(edges, e.Table+" ON "+e.FK+"="+e.PK)
		addPred(e.Pred)
	}
	sort.Strings(edges)

	agg := ""
	if sh.Agg != nil {
		agg = sh.Agg.String()
	}
	k.Skeleton = strings.Join([]string{
		"fact=" + sh.Fact,
		"join=" + strings.Join(edges, ";"),
		"agg=SUM(" + agg + ") AS " + sh.AggName,
		"group=" + strings.Join(sh.GroupBy, ","),
	}, "|")

	sort.Slice(conjs, func(i, j int) bool { return conjs[i].s < conjs[j].s })
	for i, c := range conjs {
		if i > 0 && c.s == conjs[i-1].s {
			continue // p AND p ≡ p: the key is a set, not a multiset
		}
		k.Conjuncts = append(k.Conjuncts, c.s)
		k.ConjPreds = append(k.ConjPreds, c.p)
	}
	return k
}

// Fingerprint renders the full canonical identity: skeleton plus the sorted
// conjunct set. Equal fingerprints mean equal results (up to row order).
func (k *CacheKey) Fingerprint() string {
	return k.Skeleton + "|where=" + strings.Join(k.Conjuncts, " AND ")
}

// Subsumes reports whether a result computed for k answers the strictly-
// narrower query identified by narrow, and if so returns the extra
// predicates to apply to k's result rows. The rule: identical skeletons
// (same joins, aggregate and grouping), k's conjuncts a subset of narrow's,
// and every extra conjunct reading only k's group-by columns — those are the
// only input columns that survive into the result, and filtering whole
// groups preserves each group's SUM.
func (k *CacheKey) Subsumes(narrow *CacheKey) (extra []expr.Pred, ok bool) {
	if k.Skeleton != narrow.Skeleton {
		return nil, false
	}
	have := make(map[string]bool, len(k.Conjuncts))
	for _, c := range k.Conjuncts {
		have[c] = true
	}
	grouped := make(map[string]bool, len(k.GroupBy))
	for _, g := range k.GroupBy {
		grouped[g] = true
	}
	matched := 0
	for i, c := range narrow.Conjuncts {
		if have[c] {
			matched++
			continue
		}
		for _, col := range expr.ColumnsOf(nil, []expr.Pred{narrow.ConjPreds[i]}) {
			if !grouped[col] {
				return nil, false
			}
		}
		extra = append(extra, narrow.ConjPreds[i])
	}
	if matched != len(k.Conjuncts) {
		// A cached conjunct is missing from the narrow query: the cached
		// result may be the narrower one, which a cache cannot widen.
		return nil, false
	}
	return extra, true
}
