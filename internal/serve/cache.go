package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"clydesdale/internal/cluster"
	"clydesdale/internal/core"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
)

// tableCache keeps built dimension hash tables resident per node across
// queries, implementing core.TableProvider. It generalizes the per-job
// nodeTableGroup singleflight: concurrent misses on one (node, key) still
// build once, but the winner's table outlives the job and serves every
// later query until evicted. Residency is accounted against the node's
// memory (each cached table holds a cluster reservation) and bounded by a
// per-node budget with LRU eviction of unpinned entries.
//
// The version of the dimension a spec reads is part of its fingerprint, so
// a query that pinned a newer version cannot reach a table built from an
// older one. A node reclaims those when it first builds from the newer
// version, or under budget pressure like any other entry.
type tableCache struct {
	budget int64 // per-node resident-bytes bound

	mu    sync.Mutex
	nodes map[string]*nodeCache
	clock uint64 // LRU clock; ticks on every acquire/release

	hits          atomic.Int64
	misses        atomic.Int64
	builds        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64 // evictions of tables a newer version superseded
}

// cacheKey is the cache identity of one table build: dimension directory
// and build fingerprint (table version, join key, predicate, aux
// projection). Two lookups with equal keys probe byte-identical tables.
func cacheKey(dimDir string, spec *core.DimSpec) string {
	return dimDir + "\x00" + spec.Fingerprint()
}

type nodeCache struct {
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
	ht      *core.DimHashTable
	err     error
	bytes   int64
	pins    int
	lastUse uint64
}

// idle reports whether the entry holds a finished table nobody probes: the
// only kind eviction may take.
func (e *cacheEntry) idle() bool {
	select {
	case <-e.done:
		return e.err == nil && e.pins == 0
	default:
		return false
	}
}

func newTableCache(budget int64) *tableCache {
	return &tableCache{budget: budget, nodes: make(map[string]*nodeCache)}
}

// AcquireDimTable implements core.TableProvider: return the node's resident
// table for the spec, building (and reserving node memory for) it on first
// use. The returned release unpins the table; the bytes stay resident —
// and reserved — until LRU eviction or Close.
func (c *tableCache) AcquireDimTable(ctx *mr.TaskContext, dimDir string, spec *core.DimSpec) (*core.DimHashTable, func(), error) {
	node := ctx.Node()
	key := cacheKey(dimDir, spec)

	c.mu.Lock()
	nc, ok := c.nodes[node.ID()]
	if !ok {
		nc = &nodeCache{entries: make(map[string]*cacheEntry)}
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
			return nil, nil, e.err
		}
		c.hits.Add(1)
		return e.ht, func() { c.unpin(node, nc, e) }, nil
	}
	// First sight of this version on the node: tables built from older
	// versions of the dimension are superseded, so reclaim the idle ones.
	for k, old := range nc.entries {
		if old.dir == dimDir && old.version < spec.Version && old.idle() {
			c.evictEntryLocked(node, nc, k, old)
			c.invalidations.Add(1)
		}
	}
	e := &cacheEntry{dir: dimDir, version: spec.Version, done: make(chan struct{}), pins: 1}
	c.clock++
	e.lastUse = c.clock
	nc.entries[key] = e
	c.mu.Unlock()

	c.misses.Add(1)
	start := time.Now()
	ht, err := core.BuildDimHashTable(ctx.FS, node, dimDir, spec)
	if err == nil {
		// Make room under the budget before taking the node reservation, so
		// a full cache cycles instead of spuriously OOMing the build.
		c.mu.Lock()
		c.evictLocked(node, nc, ht.MemBytes)
		c.mu.Unlock()
		err = node.ReserveMemory(ht.MemBytes)
	}
	if err != nil {
		e.err = err
		c.mu.Lock()
		delete(nc.entries, key) // failed builds are not cached; next query retries
		c.mu.Unlock()
		close(e.done)
		return nil, nil, err
	}
	e.ht = ht
	e.bytes = ht.MemBytes
	c.mu.Lock()
	if nc.dead {
		// The node was killed between the reservation and publication: the
		// reservation died with the node's memory, so caching the table
		// would let later warm probes use a freed reservation. Fail the
		// build instead; dropNode already handled the finished entries.
		delete(nc.entries, key)
		e.err = cluster.ErrNodeDown
		c.mu.Unlock()
		close(e.done)
		return nil, nil, e.err
	}
	nc.resident += e.bytes
	c.mu.Unlock()
	close(e.done)
	c.builds.Add(1)
	ctx.Counters.Add(core.CtrHashTablesBuilt, 1)
	ctx.Counters.Add(core.CtrHashBuildNanos, time.Since(start).Nanoseconds())
	attrs := append([]string{"table", spec.Table, "cache", "miss"}, core.RecordDimBuilds(ctx.Counters, ht)...)
	ctx.Span(obs.PhaseHashBuild, start, attrs...)
	return ht, func() { c.unpin(node, nc, e) }, nil
}

func (c *tableCache) unpin(node *cluster.Node, nc *nodeCache, e *cacheEntry) {
	c.mu.Lock()
	e.pins--
	c.clock++
	e.lastUse = c.clock
	c.evictLocked(node, nc, 0)
	c.mu.Unlock()
}

// evictEntryLocked drops one idle entry and returns its reservation.
func (c *tableCache) evictEntryLocked(node *cluster.Node, nc *nodeCache, key string, e *cacheEntry) {
	delete(nc.entries, key)
	nc.resident -= e.bytes
	node.ReleaseMemory(e.bytes)
	c.evictions.Add(1)
}

// evictLocked drops unpinned tables, least recently used first, until the
// node's resident bytes plus the incoming bytes fit the budget. Pinned or
// still-building entries are skipped, so eviction can legitimately fail to
// reach the budget under heavy concurrency — admission control is what
// keeps that from spiraling.
func (c *tableCache) evictLocked(node *cluster.Node, nc *nodeCache, incoming int64) {
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
		c.evictEntryLocked(node, nc, victimKey, victim)
	}
}

// dropNode evicts every finished cache entry of a dead node and marks the
// node dead so in-flight builds fail instead of publishing. The freed
// reservations are not returned via ReleaseMemory: Kill already zeroed the
// node's memory accounting, and double-releasing would corrupt it after a
// revive. Entries still pinned by in-flight probes are dropped too — those
// probes fail anyway (every charge on the dead node does) and their later
// unpin of a removed entry is harmless.
func (c *tableCache) dropNode(nodeID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	nc, ok := c.nodes[nodeID]
	if !ok {
		return
	}
	nc.dead = true
	for k, e := range nc.entries {
		select {
		case <-e.done:
		default:
			continue // in-flight build; it observes nc.dead and fails itself
		}
		delete(nc.entries, k)
		nc.resident -= e.bytes
		c.evictions.Add(1)
	}
}

// residentEverywhere reports whether the key's table is already built and
// resident on every listed node — the admission controller then charges
// nothing for that dimension.
func (c *tableCache) residentEverywhere(key string, nodeIDs []string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range nodeIDs {
		nc, ok := c.nodes[id]
		if !ok {
			return false
		}
		e, ok := nc.entries[key]
		if !ok {
			return false
		}
		select {
		case <-e.done:
		default:
			return false
		}
		if e.err != nil {
			return false
		}
	}
	return true
}

// residentBytes sums the resident table bytes across all nodes.
func (c *tableCache) residentBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	for _, nc := range c.nodes {
		total += nc.resident
	}
	return total
}

// evictAll releases every cached table's node reservation; Close calls it
// after in-flight queries drain, so no entry should be pinned or building.
func (c *tableCache) evictAll(nodeOf func(string) *cluster.Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, nc := range c.nodes {
		node := nodeOf(id)
		for k, e := range nc.entries {
			select {
			case <-e.done:
			default:
				continue
			}
			if e.err == nil && node != nil {
				node.ReleaseMemory(e.bytes)
			}
			nc.resident -= e.bytes
			delete(nc.entries, k)
			c.evictions.Add(1)
		}
	}
}
