package core

import (
	"clydesdale/internal/colstore"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/obs"
)

// RunAsLowered is Engine.run for the tests outside the package: the plan
// over the pin exactly as cut, with no one-step-per-pass fallback.
var RunAsLowered = (*Engine).run

// Catalog is the catalog the engine was made with.
func (e *Engine) Catalog() *Catalog { return e.cat }

// TableMemo is an engine's memo of built tables; NodeBuild a node's build
// through one (nil builds afresh), BuildDim a task's, with its counters.
type TableMemo = tableMemo

var (
	NodeBuild = nodeBuild
	BuildDim  = buildDim
)

// SameArrays reports whether two tables are handles on one build's arrays.
func SameArrays(a, b *DimHashTable) bool { return &a.tags[0] == &b.tags[0] }

// BuiltTable is the table the engine's memo holds for the spec's version of
// the dimension at dir, nil when it holds none; BuiltTables counts them.
func (e *Engine) BuiltTable(dir string, spec *DimSpec) *DimHashTable {
	if st, ok := e.built.Get(dir, spec.Version, builtKey(spec)); ok {
		return st.h
	}
	return nil
}

func (e *Engine) BuiltTables() int { return e.built.Len() }

// Held is the table the cache holds for key on the node, nil when none.
func (c *TableCache) Held(nodeID, key string) *DimHashTable {
	c.mu.Lock()
	defer c.mu.Unlock()
	if nc := c.nodes[nodeID]; nc != nil {
		if e := nc.entries[key]; e != nil && e.finished() {
			return e.ht
		}
	}
	return nil
}

// SideTables counts the side tables the table's handles share: held in
// all, and live, those whose dictionary has not been collected.
func (h *DimHashTable) SideTables() (held, live int) {
	h.sides.mu.Lock()
	defer h.sides.mu.Unlock()
	for k := range h.sides.m {
		if held++; k.Value() != nil {
			live++
		}
	}
	return held, live
}

// ImagesEncoded is how many dimension images the filesystem's registry has
// encoded (colstore.dim_images_encoded), read through an obs registry.
func ImagesEncoded(fs *hdfs.FileSystem) int64 {
	reg := obs.NewRegistry()
	colstore.NewSnapshots(fs).Observe(reg, "")
	return reg.Snapshot().Counters["colstore.dim_images_encoded"]
}
