package core

import (
	"fmt"

	"clydesdale/internal/expr"
	"clydesdale/internal/records"
)

// The row-at-a-time build BuildDimHashTable used before the node-local
// dimension copy went columnar, kept as the oracle the columnar build is
// held to: compile the whole predicate as a row predicate, test every
// record, insert the survivors one by one into a table that starts small
// and doubles. It shares only the table layout (slots, tags, arena) and
// finalize with the code under test — its probing and growth are its own.

// insert adds one entry. A duplicate key overwrites the earlier aux values
// in place (last write wins, matching map semantics).
func (h *DimHashTable) insert(k int64, aux []records.Value) {
	if h.n >= len(h.slots)*7/10 {
		h.grow()
	}
	hv := mix64(uint64(k))
	tag := uint8(hv>>56) | tagOccupied
	for i := hv & h.mask; ; i = (i + 1) & h.mask {
		if h.tags[i] == tagEmpty {
			h.tags[i] = tag
			s := &h.slots[i]
			s.key = k
			if h.auxWidth > 0 {
				s.off = int32(len(h.arena))
				h.arena = append(h.arena, aux...)
			}
			h.n++
			return
		}
		if s := &h.slots[i]; h.tags[i] == tag && s.key == k {
			if h.auxWidth > 0 {
				copy(h.arena[s.off:s.off+int32(h.auxWidth)], aux)
			}
			return
		}
	}
}

// grow doubles the slot array and rehashes.
func (h *DimHashTable) grow() {
	oldSlots, oldTags := h.slots, h.tags
	h.alloc(len(oldSlots) * 2)
	for j, t := range oldTags {
		if t == tagEmpty {
			continue
		}
		i := mix64(uint64(oldSlots[j].key)) & h.mask
		for h.tags[i] != tagEmpty {
			i = (i + 1) & h.mask
		}
		h.tags[i] = t
		h.slots[i] = oldSlots[j]
	}
}

// buildRowwise builds spec's table from the dimension's decoded rows.
func buildRowwise(rows []records.Record, spec *DimSpec) (*DimHashTable, error) {
	schema := spec.Schema
	var pred expr.RowPred
	if spec.Pred != nil {
		p, err := expr.CompilePred(spec.Pred, schema)
		if err != nil {
			return nil, fmt.Errorf("core: dim %s predicate: %w", spec.Table, err)
		}
		pred = p
	}
	pkIx := schema.MustIndex(spec.DimPK)
	auxIx := make([]int, len(spec.Aux))
	for i, a := range spec.Aux {
		auxIx[i] = schema.MustIndex(a)
	}
	h := newDimHashTable(spec.Table, len(auxIx), 0) // grows to the capacity its entries need
	aux := make([]records.Value, len(auxIx))
	for _, rec := range rows {
		if pred != nil && !pred(rec) {
			continue
		}
		for i, ix := range auxIx {
			aux[i] = rec.At(ix)
		}
		h.insert(rec.At(pkIx).Int64(), aux)
	}
	h.finalize()
	return h, nil
}

// BuildRowwise hands the oracle to the tests in package core_test, which
// can import the ssb fixtures this package cannot.
var BuildRowwise = buildRowwise
