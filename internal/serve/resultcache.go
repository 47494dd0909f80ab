package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"clydesdale/internal/core"
	"clydesdale/internal/expr"
	"clydesdale/internal/obs"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/results"
)

// errResultNotCached marks a placeholder whose build did not publish (the
// query failed, was shed, or its rows outgrew the budget). Waiters
// piggybacked on the placeholder retry the cache from scratch.
var errResultNotCached = errors.New("serve: result not cached")

// resultCache keeps whole query results resident on the driver, keyed by
// the normalized plan fingerprint (plan.KeyOf): two queries that compute
// the same answer share one entry no matter how their predicates were
// spelled. Entries singleflight — concurrent misses on one fingerprint run
// the query once and everyone else waits for the published rows — and a
// lookup that misses its own fingerprint still scans for a subsuming entry
// (same skeleton, subset conjuncts, extras over group-by columns only)
// whose rows answer the narrower query after a post-filter.
//
// Like the table cache, residency is byte-accounted (records.Record
// MemSize) against a budget with LRU eviction; unlike it, results live on
// the driver, so the reservation ledger is the cache's own bytes gauge
// rather than node memory.
//
// A cached SUM is stale the moment any table it read changes, so an entry
// is labelled with the {table → version} vector its rows were computed from
// and every lookup brings the current one: an entry older in any table is
// dropped on sight and the lookup is a miss.
type resultCache struct {
	budget int64
	reg    *obs.Registry // live gauges; may be nil

	mu      sync.Mutex
	entries map[string]*resultEntry // fingerprint → entry
	bytes   int64
	clock   uint64 // LRU clock; ticks on every touch

	hits          atomic.Int64
	subsumedHits  atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
}

// resultEntry is one cached result. done closes when the build publishes or
// aborts (singleflight); rs is immutable once set — readers copy the row
// slice, never the entry.
type resultEntry struct {
	key  plan.CacheKey
	fp   string
	done chan struct{}
	rs   *results.ResultSet
	// at is the version of each of key.Tables the rows were computed from,
	// in that order; set with rs.
	at      core.Versions
	err     error
	bytes   int64
	lastUse uint64
}

// staleAt reports whether some table has moved past the version the entry's
// rows were computed from. cur lists the entry's tables in the entry's
// order: equal fingerprints and subsuming skeletons both imply equal
// key.Tables.
func (e *resultEntry) staleAt(cur core.Versions) bool {
	for i, v := range cur.At {
		if e.at.At[i] < v {
			return true
		}
	}
	return false
}

func newResultCache(budget int64, reg *obs.Registry) *resultCache {
	return &resultCache{budget: budget, reg: reg, entries: make(map[string]*resultEntry)}
}

func (rc *resultCache) updateGaugesLocked() {
	if rc.reg == nil {
		return
	}
	rc.reg.Gauge("serve.result_cache.resident_bytes").Set(rc.bytes)
	rc.reg.Gauge("serve.result_cache.entries").Set(int64(len(rc.entries)))
	rc.reg.Gauge("serve.result_cache.hits").Set(rc.hits.Load())
	rc.reg.Gauge("serve.result_cache.subsumption_hits").Set(rc.subsumedHits.Load())
}

func (rc *resultCache) count(c *atomic.Int64, name string) {
	c.Add(1)
	if rc.reg != nil {
		rc.reg.Counter("serve.result_cache." + name).Inc()
	}
}

// lookup resolves key against the cache for a query arriving when the
// tables of key.Tables are at versions cur. Outcomes:
//   - exact hit: (rows, "hit", at, nil) — rows are a fresh ResultSet whose
//     row slice the caller owns (it may re-sort freely), computed from
//     versions at, none older than cur;
//   - subsumption hit: (rows, "subsumed", at, nil) — cached rows of a
//     broader query, already post-filtered by the extra conjuncts;
//   - miss: (nil, "miss", nil, publish) — the caller owns the placeholder
//     and MUST call publish exactly once: with the computed result and the
//     versions it was computed from to cache it, or with nil to abort
//     (query failed or was shed).
//
// Waiting on a concurrent build blocks until it resolves or ctx ends.
func (rc *resultCache) lookup(ctx context.Context, key *plan.CacheKey, fp string, cur core.Versions) (*results.ResultSet, string, core.Versions, func(*results.ResultSet, core.Versions), error) {
	trySubsume := true
	for {
		rc.mu.Lock()
		if e, ok := rc.entries[fp]; ok {
			rc.clock++
			e.lastUse = rc.clock
			rc.mu.Unlock()
			select {
			case <-e.done:
			case <-ctx.Done():
				return nil, "", core.Versions{}, nil, ctx.Err()
			}
			if e.err != nil {
				continue // build aborted; retry (likely becoming the builder)
			}
			if e.staleAt(cur) {
				rc.mu.Lock()
				rc.dropStaleLocked(e)
				rc.mu.Unlock()
				continue
			}
			rc.count(&rc.hits, "hits")
			rc.updateGauges()
			return copyResult(e.rs), "hit", e.at, nil, nil
		}
		// No exact entry: a finished broader one may subsume this query.
		if trySubsume {
			if e, extra := rc.subsumerLocked(key, cur); e != nil {
				rc.clock++
				e.lastUse = rc.clock
				rs := e.rs // immutable once published; filter outside the lock
				rc.mu.Unlock()
				filtered, err := filterResult(rs, extra)
				if err == nil {
					rc.count(&rc.subsumedHits, "subsumption_hits")
					rc.updateGauges()
					return filtered, "subsumed", e.at, nil, nil
				}
				// A predicate the result schema cannot evaluate: degrade to a
				// plain miss (retaking the lock, since an exact entry may have
				// appeared meanwhile) rather than fail the query over a cache
				// path.
				trySubsume = false
				continue
			}
		}
		e := &resultEntry{key: *key, fp: fp, done: make(chan struct{})}
		rc.clock++
		e.lastUse = rc.clock
		rc.entries[fp] = e
		rc.mu.Unlock()
		rc.count(&rc.misses, "misses")
		return nil, "miss", core.Versions{}, func(rs *results.ResultSet, at core.Versions) { rc.publish(e, rs, at) }, nil
	}
}

// dropStaleLocked reclaims a finished entry some table has moved past.
func (rc *resultCache) dropStaleLocked(e *resultEntry) {
	if rc.entries[e.fp] != e {
		return // another lookup already did
	}
	delete(rc.entries, e.fp)
	rc.bytes -= e.bytes
	rc.count(&rc.invalidations, "invalidations")
	rc.updateGaugesLocked()
}

// subsumerLocked finds a finished entry, current at versions cur, whose key
// subsumes the lookup key, returning it with the extra post-filter
// conjuncts. Stale subsumers it comes across are reclaimed.
func (rc *resultCache) subsumerLocked(key *plan.CacheKey, cur core.Versions) (*resultEntry, []expr.Pred) {
	for _, e := range rc.entries {
		select {
		case <-e.done:
		default:
			continue // still building; its key may yet fail to publish
		}
		if e.err != nil {
			continue
		}
		if extra, ok := e.key.Subsumes(key); ok {
			if e.staleAt(cur) {
				rc.dropStaleLocked(e)
				continue
			}
			return e, extra
		}
	}
	return nil, nil
}

// publish resolves a miss placeholder: caches rs as computed from versions
// at, or aborts on nil. Either way every waiter on the entry unblocks.
func (rc *resultCache) publish(e *resultEntry, rs *results.ResultSet, at core.Versions) {
	if rs == nil {
		rc.mu.Lock()
		if rc.entries[e.fp] == e {
			delete(rc.entries, e.fp)
		}
		e.err = errResultNotCached
		rc.updateGaugesLocked()
		rc.mu.Unlock()
		close(e.done)
		return
	}
	// Snapshot the rows: the caller re-sorts its copy per query, and cached
	// canonical rows must not move under later readers.
	canonical := copyResult(rs)
	bytes := resultBytes(canonical)
	rc.mu.Lock()
	if bytes > rc.budget {
		delete(rc.entries, e.fp)
		e.err = errResultNotCached
	} else {
		rc.evictLocked(bytes)
		e.rs, e.at, e.bytes = canonical, at, bytes
		rc.bytes += bytes
	}
	rc.updateGaugesLocked()
	rc.mu.Unlock()
	close(e.done)
}

// evictLocked drops finished entries, least recently used first, until the
// incoming bytes fit the budget.
func (rc *resultCache) evictLocked(incoming int64) {
	for rc.bytes+incoming > rc.budget {
		var victimFP string
		var victim *resultEntry
		for fp, e := range rc.entries {
			select {
			case <-e.done:
			default:
				continue // in-flight build holds no bytes yet
			}
			if e.err != nil {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victimFP, victim = fp, e
			}
		}
		if victim == nil {
			return
		}
		delete(rc.entries, victimFP)
		rc.bytes -= victim.bytes
		rc.count(&rc.evictions, "evictions")
	}
}

// evictAll empties the cache (Close, after every query has drained).
func (rc *resultCache) evictAll() {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for fp, e := range rc.entries {
		delete(rc.entries, fp)
		rc.bytes -= e.bytes
		rc.count(&rc.invalidations, "invalidations")
	}
	rc.updateGaugesLocked()
}

// residentBytes returns the cache's current byte accounting.
func (rc *resultCache) residentBytes() int64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.bytes
}

func (rc *resultCache) updateGauges() {
	rc.mu.Lock()
	rc.updateGaugesLocked()
	rc.mu.Unlock()
}

// copyResult returns a ResultSet sharing rows but owning its slice: sorting
// the copy never reorders the original.
func copyResult(rs *results.ResultSet) *results.ResultSet {
	return &results.ResultSet{Schema: rs.Schema, Rows: append([]records.Record(nil), rs.Rows...)}
}

// filterResult applies extra conjuncts (each referencing only columns of the
// result schema) to a cached result, producing the narrower query's rows.
func filterResult(rs *results.ResultSet, extra []expr.Pred) (*results.ResultSet, error) {
	preds := make([]expr.RowPred, len(extra))
	for i, p := range extra {
		rp, err := expr.CompilePred(p, rs.Schema)
		if err != nil {
			return nil, err
		}
		preds[i] = rp
	}
	out := &results.ResultSet{Schema: rs.Schema}
	for _, row := range rs.Rows {
		keep := true
		for _, rp := range preds {
			if !rp(row) {
				keep = false
				break
			}
		}
		if keep {
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// resultBytes estimates a result's driver-side footprint.
func resultBytes(rs *results.ResultSet) int64 {
	var n int64 = 64 // ResultSet + schema headers
	for _, r := range rs.Rows {
		n += r.MemSize()
	}
	return n
}
