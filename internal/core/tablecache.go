package core

import (
	"sync"
	"sync/atomic"

	"clydesdale/internal/cluster"
	"clydesdale/internal/mr"
)

// TableCache keeps built dimension hash tables resident per node, and is
// the one place a multi-threaded star-join task gets its tables (§5.2):
// concurrent misses on one (node, key) build once, and the winner's table
// serves every later task on the node until evicted. Residency is accounted
// against the node's memory (each cached table holds a cluster reservation)
// and bounded by a per-node budget with LRU eviction of unpinned entries.
//
// Who owns the cache decides how long tables live. An Engine given none
// makes one per job and closes it when the job ends, the paper's lifetime:
// a node's consecutive tasks share one build and nothing stays reserved
// between jobs. The serving sessions over one mr.Engine share one for as
// long as any is open, so query N+1 probes the tables query N built.
//
// The version of the dimension a spec reads is part of its fingerprint, so
// a query that pinned a newer version cannot reach a table built from an
// older one. A node reclaims those when it first builds from the newer
// version, or under budget pressure like any other entry.
type TableCache struct {
	budget  int64  // per-node resident-bytes bound
	unwatch func() // cancels the cluster death watcher

	mu    sync.Mutex
	nodes map[string]*nodeCache
	clock uint64 // LRU clock; ticks on every acquire/release

	hits          atomic.Int64
	misses        atomic.Int64
	builds        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64 // evictions of tables a newer version superseded
}

// TableCacheStats is a point-in-time snapshot of a cache's counters.
// Invalidations counts the evictions of tables a newer version superseded.
type TableCacheStats struct {
	Hits, Misses, Builds, Evictions, Invalidations int64
	ResidentBytes                                  int64
}

// TableKey is the cache identity of one table build: dimension directory
// and build fingerprint (table version, join key, predicate, aux
// projection). Two lookups with equal keys probe byte-identical tables.
func TableKey(dimDir string, spec *DimSpec) string {
	return dimDir + "\x00" + spec.Fingerprint()
}

type nodeCache struct {
	node     *cluster.Node
	entries  map[string]*cacheEntry
	resident int64
	// dead marks the node as killed: its reservations were freed with the
	// node's memory, so finished entries were dropped and any in-flight
	// build must not publish (it would cache a table whose reservation no
	// longer exists). Cleared if the node is seen alive again.
	dead bool
}

// cacheEntry is one node's copy of one table. done closes when the build
// finishes (singleflight); pins counts tasks currently probing the table,
// which eviction must skip.
type cacheEntry struct {
	dir     string // the dimension the table was built from, and
	version uint64 // which version of it
	done    chan struct{}
	ht      *DimHashTable
	err     error
	bytes   int64
	pins    int
	lastUse uint64
}

// finished reports whether the entry's build has ended, either way.
func (e *cacheEntry) finished() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// idle reports whether the entry holds a finished table nobody probes: the
// only kind eviction may take.
func (e *cacheEntry) idle() bool { return e.finished() && e.err == nil && e.pins == 0 }

// NewTableCache returns an empty cache over the cluster's nodes holding at
// most budget bytes of tables per node. A killed node takes its memory
// reservations with it, so the cache watches for deaths and drops the
// node's tables at once: a later warm probe must not touch a table whose
// reservation was freed. Close ends the watch.
func NewTableCache(c *cluster.Cluster, budget int64) *TableCache {
	tc := &TableCache{budget: budget, nodes: make(map[string]*nodeCache)}
	tc.unwatch = c.OnDeath(func(n *cluster.Node) { tc.dropNode(n.ID()) })
	return tc
}

// acquire returns the node's resident table for the spec under key (its
// TableKey, which the caller computes once per job, not once per task),
// building it through the engine's memo of built tables (buildDim) and
// reserving node memory for it on first use; built reports that this
// caller did the build. The returned release unpins the table; the bytes
// stay resident, and reserved, until LRU eviction or Close.
func (c *TableCache) acquire(ctx *mr.TaskContext, memo *tableMemo, dimDir, key string, spec *DimSpec) (ht *DimHashTable, built bool, release func(), err error) {
	node := ctx.Node()

	c.mu.Lock()
	nc, ok := c.nodes[node.ID()]
	if !ok {
		nc = &nodeCache{node: node, entries: make(map[string]*cacheEntry)}
		c.nodes[node.ID()] = nc
	}
	if nc.dead && node.IsAlive() {
		nc.dead = false // node revived; its cache restarts empty
	}
	if e, ok := nc.entries[key]; ok {
		e.pins++
		c.clock++
		e.lastUse = c.clock
		c.mu.Unlock()
		<-e.done
		if e.err != nil {
			// The build this caller piggybacked on failed; the winner already
			// removed the entry, so only the pin needs undoing.
			c.mu.Lock()
			e.pins--
			c.mu.Unlock()
			return nil, false, nil, e.err
		}
		c.hits.Add(1)
		return e.ht, false, func() { c.unpin(nc, e) }, nil
	}
	// First sight of this version on the node: tables built from older
	// versions of the dimension are superseded, so reclaim the idle ones.
	for k, old := range nc.entries {
		if old.dir == dimDir && old.version < spec.Version && old.idle() {
			c.evictEntryLocked(nc, k, old)
			c.invalidations.Add(1)
		}
	}
	e := &cacheEntry{dir: dimDir, version: spec.Version, done: make(chan struct{}), pins: 1}
	c.clock++
	e.lastUse = c.clock
	nc.entries[key] = e
	c.mu.Unlock()

	c.misses.Add(1)
	e.ht, e.err = buildDim(ctx, memo, dimDir, spec)
	if e.err == nil {
		// Make room under the budget before taking the node reservation, so
		// a full cache cycles instead of spuriously OOMing the build.
		c.mu.Lock()
		c.evictLocked(nc, e.ht.MemBytes)
		c.mu.Unlock()
		e.err = node.ReserveMemory(e.ht.MemBytes)
	}
	c.mu.Lock()
	if e.err == nil && nc.dead {
		// The node was killed between the reservation and publication: the
		// reservation died with the node's memory, so caching the table
		// would let later warm probes use a freed reservation. Fail the
		// build instead; dropNode already handled the finished entries.
		e.err = cluster.ErrNodeDown
	}
	if e.err != nil {
		delete(nc.entries, key) // failed builds are not cached; the next task retries
		c.mu.Unlock()
		close(e.done)
		return nil, false, nil, e.err
	}
	e.bytes = e.ht.MemBytes
	nc.resident += e.bytes
	c.mu.Unlock()
	close(e.done)
	c.builds.Add(1)
	return e.ht, true, func() { c.unpin(nc, e) }, nil
}

func (c *TableCache) unpin(nc *nodeCache, e *cacheEntry) {
	c.mu.Lock()
	e.pins--
	c.clock++
	e.lastUse = c.clock
	c.evictLocked(nc, 0)
	c.mu.Unlock()
}

// evictEntryLocked drops one idle entry and returns its reservation.
func (c *TableCache) evictEntryLocked(nc *nodeCache, key string, e *cacheEntry) {
	delete(nc.entries, key)
	nc.resident -= e.bytes
	nc.node.ReleaseMemory(e.bytes)
	c.evictions.Add(1)
}

// evictLocked drops unpinned tables, least recently used first, until the
// node's resident bytes plus the incoming bytes fit the budget. Pinned or
// still-building entries are skipped, so eviction can legitimately fail to
// reach the budget under heavy concurrency — admission control is what
// keeps that from spiraling.
func (c *TableCache) evictLocked(nc *nodeCache, incoming int64) {
	for nc.resident+incoming > c.budget {
		var victimKey string
		var victim *cacheEntry
		for k, e := range nc.entries {
			if e.idle() && (victim == nil || e.lastUse < victim.lastUse) {
				victimKey, victim = k, e
			}
		}
		if victim == nil {
			return
		}
		c.evictEntryLocked(nc, victimKey, victim)
	}
}

// dropNode evicts every finished cache entry of a dead node and marks the
// node dead so in-flight builds fail instead of publishing. The freed
// reservations are not returned via ReleaseMemory: Kill already zeroed the
// node's memory accounting, and double-releasing would corrupt it after a
// revive. Entries still pinned by in-flight probes are dropped too — those
// probes fail anyway (every charge on the dead node does) and their later
// unpin of a removed entry is harmless.
func (c *TableCache) dropNode(nodeID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	nc, ok := c.nodes[nodeID]
	if !ok {
		return
	}
	nc.dead = true
	for k, e := range nc.entries {
		if !e.finished() {
			continue // in-flight build; it observes nc.dead and fails itself
		}
		delete(nc.entries, k)
		nc.resident -= e.bytes
		c.evictions.Add(1)
	}
}

// ResidentEverywhere reports whether the key's table is already built and
// resident on every listed node — the admission controller then charges
// nothing for that dimension.
func (c *TableCache) ResidentEverywhere(key string, nodeIDs []string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range nodeIDs {
		nc, ok := c.nodes[id]
		if !ok {
			return false
		}
		if e, ok := nc.entries[key]; !ok || !e.finished() || e.err != nil {
			return false
		}
	}
	return true
}

// Stats snapshots the cache's counters and sums the resident table bytes
// across all nodes.
func (c *TableCache) Stats() TableCacheStats {
	st := TableCacheStats{
		Hits: c.hits.Load(), Misses: c.misses.Load(), Builds: c.builds.Load(),
		Evictions: c.evictions.Load(), Invalidations: c.invalidations.Load(),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, nc := range c.nodes {
		st.ResidentBytes += nc.resident
	}
	return st
}

// Close releases every cached table's node reservation and stops watching
// for node deaths. Its owner calls it once nothing probes the cache any
// more — the job has returned, the session has drained — so no entry is
// pinned or building.
func (c *TableCache) Close() {
	c.unwatch()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, nc := range c.nodes {
		for k, e := range nc.entries {
			if e.finished() {
				c.evictEntryLocked(nc, k, e)
			}
		}
	}
}
