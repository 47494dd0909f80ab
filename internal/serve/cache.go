package serve

import (
	"fmt"
	"strings"
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
// Cache identity is generation-stamped: invalidateDim bumps a per-dimension
// generation, instantly unmapping every key built from the old contents —
// queries after a dimension roll-in rebuild from the new master copy
// instead of probing stale tables.
type tableCache struct {
	budget int64 // per-node resident-bytes bound

	mu    sync.Mutex
	nodes map[string]*nodeCache
	gens  map[string]uint64 // dimDir → generation, bumped by invalidateDim
	clock uint64            // LRU clock; ticks on every acquire/release

	hits          atomic.Int64
	misses        atomic.Int64
	builds        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
}

// keyFor is the cache identity of one table build: dimension directory,
// the directory's current roll-in generation, and the build fingerprint
// (join key, predicate, aux projection). Two lookups with equal keys probe
// byte-identical tables; bumping the generation retires every outstanding
// key at once without touching the entries that carry them.
func (c *tableCache) keyFor(dimDir string, spec *core.DimSpec) string {
	c.mu.Lock()
	g := c.gens[dimDir]
	c.mu.Unlock()
	return keyAt(dimDir, g, spec)
}

func keyAt(dimDir string, gen uint64, spec *core.DimSpec) string {
	return fmt.Sprintf("%s\x00%d\x00%s", dimDir, gen, spec.Fingerprint())
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
	key     string // the entry's key in its nodeCache, for self-removal
	done    chan struct{}
	ht      *core.DimHashTable
	err     error
	bytes   int64
	pins    int
	lastUse uint64
	// doomed marks an entry invalidated while pinned or still building: the
	// generation bump already unmapped its key for new lookups, but queries
	// that resolved the key before the invalidation may keep probing it (a
	// consistent pre-roll-in read). The last unpin evicts it.
	doomed bool
}

func newTableCache(budget int64) *tableCache {
	return &tableCache{budget: budget, nodes: make(map[string]*nodeCache), gens: make(map[string]uint64)}
}

// NewTableProvider returns a standalone cross-query dimension-table cache
// implementing core.TableProvider, for embedders (benchmark harnesses,
// tools) that want resident hash tables across jobs without a full serving
// Session. Unlike a Session's cache it is not wired to the cluster death
// watcher, so it suits single-process use where nodes are not killed.
// budget bounds resident table bytes per node (<= 0 means 256 MiB).
func NewTableProvider(budget int64) core.TableProvider {
	if budget <= 0 {
		budget = 256 << 20
	}
	return newTableCache(budget)
}

// AcquireDimTable implements core.TableProvider: return the node's resident
// table for the spec, building (and reserving node memory for) it on first
// use. The returned release unpins the table; the bytes stay resident —
// and reserved — until LRU eviction or Close.
func (c *tableCache) AcquireDimTable(ctx *mr.TaskContext, dimDir string, spec *core.DimSpec) (*core.DimHashTable, func(), error) {
	node := ctx.Node()
	key := c.keyFor(dimDir, spec)

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
	e := &cacheEntry{key: key, done: make(chan struct{}), pins: 1}
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
	if e.doomed && e.pins == 0 {
		// Last reader of an invalidated table: its key is already unmapped
		// for new lookups, so drop it now and return the reservation.
		if cur, ok := nc.entries[e.key]; ok && cur == e {
			delete(nc.entries, e.key)
			nc.resident -= e.bytes
			if !nc.dead {
				node.ReleaseMemory(e.bytes)
			}
			c.evictions.Add(1)
		}
	}
	c.evictLocked(node, nc, 0)
	c.mu.Unlock()
}

// invalidateDim retires every cached table built from dimDir, in three
// moves: the generation bump unmaps all their keys for future lookups (a
// later query can only rebuild from the new dimension contents), finished
// unpinned entries are evicted immediately with their reservations
// released, and pinned or still-building entries are marked doomed — the
// queries that already resolved their key keep probing them (a consistent
// pre-roll-in read) and the last unpin evicts them. nodeOf resolves node
// IDs for releasing reservations. Returns entries evicted or doomed.
func (c *tableCache) invalidateDim(dimDir string, nodeOf func(string) *cluster.Node) int {
	prefix := dimDir + "\x00"
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gens[dimDir]++
	n := 0
	for id, nc := range c.nodes {
		for k, e := range nc.entries {
			if !strings.HasPrefix(k, prefix) {
				continue
			}
			n++
			c.invalidations.Add(1)
			finished := false
			select {
			case <-e.done:
				finished = true
			default:
			}
			if !finished || e.pins > 0 {
				e.doomed = true
				continue
			}
			delete(nc.entries, k)
			if e.err != nil {
				continue
			}
			nc.resident -= e.bytes
			if !nc.dead {
				if node := nodeOf(id); node != nil {
					node.ReleaseMemory(e.bytes)
				}
			}
			c.evictions.Add(1)
		}
	}
	return n
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
			select {
			case <-e.done:
			default:
				continue // still building
			}
			if e.err != nil || e.pins > 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victimKey, victim = k, e
			}
		}
		if victim == nil {
			return
		}
		delete(nc.entries, victimKey)
		nc.resident -= victim.bytes
		node.ReleaseMemory(victim.bytes)
		c.evictions.Add(1)
	}
}

// dropNode evicts every finished cache entry of a dead node and marks the
// node dead so in-flight builds fail instead of publishing. The freed
// reservations are not returned via ReleaseMemory: Kill already zeroed the
// node's memory accounting, and double-releasing would corrupt it after a
// revive. Entries still pinned by in-flight probes are dropped too — those
// probes are doomed anyway (every charge on the dead node fails) and their
// later unpin of a removed entry is harmless.
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
