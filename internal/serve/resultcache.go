package serve

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"clydesdale/internal/core"
	"clydesdale/internal/expr"
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
// lookup that misses its own fingerprint still looks for a subsuming entry
// (same skeleton, subset conjuncts, extras over group-by columns only)
// whose rows answer the narrower query after a post-filter. Finished
// entries are indexed by skeleton, so that search tests only the entries
// that can subsume, and when several do, the one with the fewest rows
// answers (ties to the smaller fingerprint).
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

	mu      sync.Mutex
	entries map[string]*resultEntry // fingerprint → entry
	// skeletons holds the finished entries of entries (published, not
	// aborted) by key skeleton: the only ones that can subsume a lookup.
	skeletons map[string][]*resultEntry
	bytes     int64
	clock     uint64 // LRU clock; ticks on every touch

	counts resultCounts  // the session's own, for Stats
	total  *resultCounts // the host's: every session's, for the registry
}

// The counts a result cache keeps, indexing resultCounts.
const (
	resultHits = iota
	resultSubsumedHits
	resultMisses
	resultEvictions
	resultInvalidations
)

// resultCountNames are the counts' names under serve.result_cache.
var resultCountNames = [...]string{"hits", "subsumption_hits", "misses", "evictions", "invalidations"}

type resultCounts [len(resultCountNames)]atomic.Int64

// count adds one to count i of the cache and of the host.
func (rc *resultCache) count(i int) {
	rc.counts[i].Add(1)
	rc.total[i].Add(1)
}

// resultEntry is one cached result. done closes when the build publishes or
// aborts (singleflight); rs is immutable once set — readers copy the row
// slice, never the entry.
type resultEntry struct {
	key  plan.CacheKey
	fp   string
	done chan struct{}
	rs   *results.ResultSet
	// orders is the order rs's rows are in: that of the statement whose
	// miss built the entry.
	orders []results.Order
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

// ordered puts rs, the entry's rows or some of them in a slice the caller
// owns, in orders: a statement ordered as the one that built the entry
// takes them as they are.
func (e *resultEntry) ordered(rs *results.ResultSet, orders []results.Order) (*results.ResultSet, error) {
	if slices.Equal(e.orders, orders) {
		return rs, nil
	}
	return rs, rs.Sort(orders)
}

// newResultCache makes an empty cache of budget bytes that adds its counts
// to total as well as its own.
func newResultCache(budget int64, total *resultCounts) *resultCache {
	return &resultCache{
		budget:    budget,
		entries:   make(map[string]*resultEntry),
		skeletons: make(map[string][]*resultEntry),
		total:     total,
	}
}

// lookup resolves key against the cache for a query ordered by orders,
// arriving when the tables of key.Tables are at versions cur. Outcomes:
//   - exact hit: (rows, "hit", at, nil) — rows are a fresh ResultSet in
//     orders whose row slice the caller owns, computed from versions at,
//     none older than cur;
//   - subsumption hit: (rows, "subsumed", at, nil) — cached rows of a
//     broader query, post-filtered by the extra conjuncts, in orders;
//   - miss: (nil, "miss", nil, publish) — the caller owns the placeholder
//     and MUST call publish exactly once: with the computed result, in
//     orders, and the versions it was computed from to cache it, or with
//     nil to abort (query failed or was shed).
//
// Waiting on a concurrent build blocks until it resolves or ctx ends.
func (rc *resultCache) lookup(ctx context.Context, key *plan.CacheKey, orders []results.Order, cur core.Versions) (*results.ResultSet, string, core.Versions, func(*results.ResultSet, core.Versions), error) {
	fp := key.Fingerprint()
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
			rs, err := e.ordered(copyResult(e.rs), orders)
			if err != nil {
				return nil, "", core.Versions{}, nil, err
			}
			rc.count(resultHits)
			return rs, "hit", e.at, nil, nil
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
					if filtered, err = e.ordered(filtered, orders); err != nil {
						return nil, "", core.Versions{}, nil, err
					}
					rc.count(resultSubsumedHits)
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
		e := &resultEntry{key: *key, fp: fp, orders: orders, done: make(chan struct{})}
		rc.clock++
		e.lastUse = rc.clock
		rc.entries[fp] = e
		rc.mu.Unlock()
		rc.count(resultMisses)
		return nil, "miss", core.Versions{}, func(rs *results.ResultSet, at core.Versions) { rc.publish(e, rs, at) }, nil
	}
}

// dropStaleLocked reclaims a finished entry some table has moved past.
func (rc *resultCache) dropStaleLocked(e *resultEntry) {
	if rc.entries[e.fp] != e {
		return // another lookup already did
	}
	rc.removeLocked(e)
	rc.count(resultInvalidations)
}

// removeLocked takes a finished entry out of the cache and its index.
func (rc *resultCache) removeLocked(e *resultEntry) {
	delete(rc.entries, e.fp)
	rc.bytes -= e.bytes
	same := rc.skeletons[e.key.Skeleton]
	if i := slices.Index(same, e); i >= 0 {
		same[i] = same[len(same)-1]
		same[len(same)-1] = nil
		same = same[:len(same)-1]
	}
	if len(same) == 0 {
		delete(rc.skeletons, e.key.Skeleton)
	} else {
		rc.skeletons[e.key.Skeleton] = same
	}
}

// subsumerLocked finds the finished entry, current at versions cur, whose
// key subsumes the lookup key and whose rows are fewest (ties to the
// smaller fingerprint), returning it with the extra post-filter conjuncts.
// Only entries of the lookup's skeleton can subsume it. Stale subsumers it
// comes across are reclaimed.
func (rc *resultCache) subsumerLocked(key *plan.CacheKey, cur core.Versions) (*resultEntry, []expr.Pred) {
	var (
		best      *resultEntry
		bestExtra []expr.Pred
		stale     []*resultEntry
	)
	for _, e := range rc.skeletons[key.Skeleton] {
		extra, ok := e.key.Subsumes(key)
		if !ok {
			continue
		}
		if e.staleAt(cur) {
			stale = append(stale, e)
			continue
		}
		if best == nil || len(e.rs.Rows) < len(best.rs.Rows) ||
			len(e.rs.Rows) == len(best.rs.Rows) && e.fp < best.fp {
			best, bestExtra = e, extra
		}
	}
	for _, e := range stale {
		rc.dropStaleLocked(e)
	}
	return best, bestExtra
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
		rc.mu.Unlock()
		close(e.done)
		return
	}
	// Snapshot the rows: the caller owns its copy, and cached canonical rows
	// must not move under later readers.
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
		rc.skeletons[e.key.Skeleton] = append(rc.skeletons[e.key.Skeleton], e)
	}
	rc.mu.Unlock()
	close(e.done)
}

// evictLocked drops finished entries, least recently used first, until the
// incoming bytes fit the budget.
func (rc *resultCache) evictLocked(incoming int64) {
	for rc.bytes+incoming > rc.budget {
		var victim *resultEntry
		for _, e := range rc.entries {
			select {
			case <-e.done:
			default:
				continue // in-flight build holds no bytes yet
			}
			if e.err != nil {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		rc.removeLocked(victim)
		rc.count(resultEvictions)
	}
}

// evictAll empties the cache (Close, after every query has drained).
func (rc *resultCache) evictAll() {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for _, e := range rc.entries {
		rc.removeLocked(e)
		rc.count(resultInvalidations)
	}
}

// residentBytes returns the cache's current byte accounting.
func (rc *resultCache) residentBytes() int64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.bytes
}

// len returns the number of cached results, builds in flight included.
func (rc *resultCache) len() int64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return int64(len(rc.entries))
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
