package core

import (
	"fmt"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/records"
)

// The dimension cache (§4, Figure 2): a master copy of every dimension
// table lives in HDFS; each node keeps a local copy on its own disk. New
// nodes, or nodes that lost their copy to a disk failure, re-copy from
// HDFS. Unlike Hive's mapjoin broadcast, this happens once per cluster —
// not once per query — so queries only pay a local read to build their
// hash tables.

func dimCacheKey(dir string) string { return "clydesdale/dimcache" + dir }

// EnsureDimCached copies the dimension at dir to every live node that does
// not already hold it. It returns the number of nodes that received a fresh
// copy.
func EnsureDimCached(fs *hdfs.FileSystem, dir string) (int, error) {
	copied := 0
	for _, n := range fs.Cluster().Alive() {
		fresh, err := ensureDimCachedOn(fs, n, dir)
		if err != nil {
			if !n.IsAlive() {
				// Died mid-copy: no task will run there, and if it revives
				// localDim re-copies on first use.
				continue
			}
			return copied, fmt.Errorf("core: caching %s on %s: %w", dir, n.ID(), err)
		}
		if fresh {
			copied++
		}
	}
	return copied, nil
}

// DropDimCached removes every node's local copy of the dimension at dir —
// dead nodes included, so a later revival re-copies post-roll-in data
// instead of serving its stale snapshot. Call after appending rows to the
// dimension's master copy; the next EnsureDimCached re-copies from HDFS.
// Returns the number of copies dropped.
func DropDimCached(c *cluster.Cluster, dir string) int {
	key := dimCacheKey(dir)
	n := 0
	for _, node := range c.Nodes() {
		if node.HasLocal(key) {
			node.DropLocal(key)
			n++
		}
	}
	return n
}

// EnsureCatalogCached caches every dimension of the catalog on every live
// node.
func EnsureCatalogCached(fs *hdfs.FileSystem, cat *Catalog) (int, error) {
	total := 0
	for _, dir := range cat.DimDirs {
		n, err := EnsureDimCached(fs, dir)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// EnsureCatalogCachedFor caches only the listed dimensions on every live
// node (normally a no-op after cluster setup).
func EnsureCatalogCachedFor(fs *hdfs.FileSystem, cat *Catalog, dims []DimSpec) (int, error) {
	total := 0
	for i := range dims {
		dir, err := cat.DimDir(dims[i].Table)
		if err != nil {
			return total, err
		}
		n, err := EnsureDimCached(fs, dir)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// localDim opens the node-local copy of a dimension, re-copying from HDFS
// if the node lost it (§4: "nodes that have lost their local copy ... may
// copy the dimension data from HDFS").
func localDim(fs *hdfs.FileSystem, node *cluster.Node, dir string, schema *records.Schema) (*colstore.ColumnSet, error) {
	key := dimCacheKey(dir)
	data, ok := node.GetLocal(key)
	if !ok {
		if _, err := ensureDimCachedOn(fs, node, dir); err != nil {
			return nil, err
		}
		if data, ok = node.GetLocal(key); !ok {
			return nil, fmt.Errorf("core: dimension %s not cachable on %s", dir, node.ID())
		}
	}
	return colstore.OpenColumnSet(data, schema)
}

// ensureDimCachedOn gives one node its local copy of the dimension at dir —
// a colstore column set — reporting whether it had to copy. Builds that miss
// the copy on one node at the same time share one scan of the master and one
// disk write.
func ensureDimCachedOn(fs *hdfs.FileSystem, node *cluster.Node, dir string) (bool, error) {
	return node.FillLocal(dimCacheKey(dir), func() ([]byte, error) {
		buf, err := colstore.EncodeRowTable(fs, dir, node.ID())
		if err != nil {
			return nil, err
		}
		return buf, node.ChargeDiskWrite(int64(len(buf)), false)
	})
}
