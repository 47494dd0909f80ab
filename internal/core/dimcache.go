package core

import (
	"fmt"
	"strconv"

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
//
// A local copy is of one version of the table, stored as <dir>@v and never
// rewritten; storing <dir>@v drops the node's <dir>@u, u < v, and a query
// still pinned at u re-copies u from the master's file prefix.

func dimCachePrefix(dir string) string { return "clydesdale/dimcache" + dir + "@" }

func dimCacheKey(dir string, version uint64) string {
	return dimCachePrefix(dir) + strconv.FormatUint(version, 10)
}

// ensureDimCached copies one version of the dimension at dir to every live
// node that does not already hold it. It returns the number of nodes that
// received a fresh copy.
func ensureDimCached(fs *hdfs.FileSystem, dir string, version uint64) (int, error) {
	copied := 0
	for _, n := range fs.Cluster().Alive() {
		fresh, err := ensureDimCachedOn(fs, n, dir, version)
		if err != nil {
			if !n.IsAlive() {
				// Died mid-copy: no task will run there, and if it revives
				// localDim re-copies on first use.
				continue
			}
			return copied, fmt.Errorf("core: caching %s@%d on %s: %w", dir, version, n.ID(), err)
		}
		if fresh {
			copied++
		}
	}
	return copied, nil
}

// DropDimCached removes every node's local copies of the dimension at dir,
// whatever their version — dead nodes included: the simulation of a disk
// loss. The next build on a node re-copies the version it needs from HDFS.
// Returns the number of copies dropped.
func DropDimCached(c *cluster.Cluster, dir string) int {
	n := 0
	for _, node := range c.Nodes() {
		for _, key := range node.LocalPaths(dimCachePrefix(dir)) {
			node.DropLocal(key)
			n++
		}
	}
	return n
}

// EnsureCatalogCached caches the current version of every dimension of the
// catalog on every live node.
func EnsureCatalogCached(fs *hdfs.FileSystem, cat *Catalog) (int, error) {
	total := 0
	for _, dir := range cat.DimDirs {
		n, err := ensureDimCached(fs, dir, colstore.RowTableVersion(fs, dir))
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// localDim opens the node-local copy of one version of a dimension,
// re-copying from HDFS if the node lost it (§4: "nodes that have lost their
// local copy ... may copy the dimension data from HDFS").
func localDim(fs *hdfs.FileSystem, node *cluster.Node, dir string, version uint64, schema *records.Schema) (*colstore.ColumnSet, error) {
	key := dimCacheKey(dir, version)
	data, ok := node.GetLocal(key)
	if !ok {
		if _, err := ensureDimCachedOn(fs, node, dir, version); err != nil {
			return nil, err
		}
		if data, ok = node.GetLocal(key); !ok {
			return nil, fmt.Errorf("core: dimension %s not cachable on %s", dir, node.ID())
		}
	}
	return colstore.OpenColumnSet(data, schema)
}

// ensureDimCachedOn gives one node its local copy of one version of the
// dimension at dir — a colstore column set — reporting whether it had to
// copy. The node reads the master through HDFS as its own client and
// stores the filesystem's one image of the version (EncodeRowTable), with
// a disk write of its own. Builds that miss the copy on one node at the
// same time share one read of the master and one disk write.
func ensureDimCachedOn(fs *hdfs.FileSystem, node *cluster.Node, dir string, version uint64) (bool, error) {
	fresh, err := node.FillLocal(dimCacheKey(dir, version), func() ([]byte, error) {
		buf, err := colstore.EncodeRowTable(fs, dir, version, node.ID())
		if err != nil {
			return nil, err
		}
		return buf, node.ChargeDiskWrite(int64(len(buf)), false)
	})
	if fresh {
		prefix := dimCachePrefix(dir)
		for _, key := range node.LocalPaths(prefix) {
			if u, err := strconv.ParseUint(key[len(prefix):], 10, 64); err == nil && u < version {
				node.DropLocal(key)
			}
		}
	}
	return fresh, err
}
