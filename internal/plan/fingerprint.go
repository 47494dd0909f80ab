package plan

import (
	"slices"
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

// CacheKey is the canonical cache identity of a decomposed plan. KeyOf
// makes it; its strings are all slices of one rendering.
type CacheKey struct {
	// Skeleton identifies everything but the predicates and the ordering:
	// the fact table, the join edges sorted by dimension table, the
	// aggregate expression and name, and the group-by list (order kept —
	// it fixes the result schema).
	Skeleton string
	// Conjuncts are the normalized top-level AND factors of every predicate
	// in the plan (fact filter and each dimension filter pooled together —
	// column names are globally unique, so a conjunct's owner is implied),
	// sorted by their canonical rendering, without repeats.
	Conjuncts []string
	// ConjPreds are the predicate trees behind Conjuncts, index-aligned.
	ConjPreds []expr.Pred
	// GroupBy is the plan's group-by list.
	GroupBy []string
	// Tables lists every table the plan reads (Shape.Tables): the tables
	// whose versions a cached result is labelled with.
	Tables []string

	fp string // Skeleton + "|where=" + Conjuncts joined by " AND "
}

// keyPart is a rendered piece of a key: text[lo:hi] of the key's buffer.
type keyPart struct {
	lo, hi int
	p      expr.Pred // the conjunct rendered, nil for a join edge
}

// KeyOf canonicalizes a decomposed shape into its cache key. Every conjunct
// and join edge is rendered once into one buffer, sorted by its text, then
// copied into the fingerprint the same buffer ends with; the key's strings
// are slices of that buffer.
func KeyOf(sh *Shape) CacheKey {
	var b strings.Builder
	b.Grow(1024)
	conjs, edges := make([]keyPart, 0, 2*len(sh.Joins)+2), make([]keyPart, 0, len(sh.Joins))
	// addPred renders p's top-level AND factors (expr.Conjuncts).
	var addPred func(p expr.Pred)
	addPred = func(p expr.Pred) {
		switch p := p.(type) {
		case nil:
		case expr.AndPred:
			for _, q := range p.Parts {
				addPred(q)
			}
		default:
			lo := b.Len()
			expr.Write(&b, p)
			conjs = append(conjs, keyPart{lo: lo, hi: b.Len(), p: p})
		}
	}
	addPred(sh.FactPred)
	for i := range sh.Joins {
		e := &sh.Joins[i]
		lo := b.Len()
		b.WriteString(e.Table)
		b.WriteString(" ON ")
		b.WriteString(e.FK)
		b.WriteByte('=')
		b.WriteString(e.PK)
		edges = append(edges, keyPart{lo: lo, hi: b.Len()})
		addPred(e.Pred)
	}
	// Join edges sorted by their text: declaration order does not change the
	// join result, so it must not change the key. Conjuncts likewise, and
	// p AND p ≡ p: the key is a set, not a multiset.
	text := b.String()
	byText := func(x, y keyPart) int { return strings.Compare(text[x.lo:x.hi], text[y.lo:y.hi]) }
	slices.SortFunc(edges, byText)
	slices.SortFunc(conjs, byText)
	conjs = slices.CompactFunc(conjs, func(x, y keyPart) bool { return byText(x, y) == 0 })

	skel := b.Len()
	b.WriteString("fact=")
	b.WriteString(sh.Fact)
	b.WriteString("|join=")
	for i, e := range edges {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(text[e.lo:e.hi])
	}
	b.WriteString("|agg=SUM(")
	if sh.Agg != nil {
		expr.Write(&b, sh.Agg)
	}
	b.WriteString(") AS ")
	b.WriteString(sh.AggName)
	b.WriteString("|group=")
	for i, g := range sh.GroupBy {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(g)
	}
	where := b.Len()
	b.WriteString("|where=")
	for i, c := range conjs {
		if i > 0 {
			b.WriteString(" AND ")
		}
		b.WriteString(text[c.lo:c.hi])
	}

	all := b.String()
	k := CacheKey{
		Skeleton:  all[skel:where],
		Conjuncts: make([]string, len(conjs)),
		ConjPreds: make([]expr.Pred, len(conjs)),
		GroupBy:   append([]string(nil), sh.GroupBy...),
		Tables:    sh.Tables(),
		fp:        all[skel:],
	}
	for i, c := range conjs {
		k.Conjuncts[i], k.ConjPreds[i] = all[c.lo:c.hi], c.p
	}
	return k
}

// Fingerprint renders the full canonical identity: skeleton plus the sorted
// conjunct set. Equal fingerprints mean equal results (up to row order).
func (k *CacheKey) Fingerprint() string { return k.fp }

// Subsumes reports whether a result computed for k answers the strictly-
// narrower query identified by narrow, and if so returns the extra
// predicates to apply to k's result rows. The rule: identical skeletons
// (same joins, aggregate and grouping), k's conjuncts a subset of narrow's,
// and every extra conjunct reading only k's group-by columns — those are the
// only input columns that survive into the result, and filtering whole
// groups preserves each group's SUM. Both conjunct lists are sorted and
// free of repeats (KeyOf), so one merge walk compares them.
func (k *CacheKey) Subsumes(narrow *CacheKey) (extra []expr.Pred, ok bool) {
	if k.Skeleton != narrow.Skeleton {
		return nil, false
	}
	have := k.Conjuncts
	for i, c := range narrow.Conjuncts {
		if len(have) > 0 && have[0] == c {
			have = have[1:]
			continue
		}
		if len(have) > 0 && have[0] < c {
			// A cached conjunct is missing from the narrow query: the cached
			// result may be the narrower one, which a cache cannot widen.
			return nil, false
		}
		for _, col := range narrow.ConjPreds[i].Columns(nil) {
			if !contains(k.GroupBy, col) {
				return nil, false
			}
		}
		extra = append(extra, narrow.ConjPreds[i])
	}
	if len(have) > 0 {
		return nil, false
	}
	return extra, true
}
