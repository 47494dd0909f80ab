package serve

import (
	"context"
	"errors"
	"sync"

	"clydesdale/internal/obs"
)

// ErrQueueFull is returned by Session.Query when the admission queue is at
// QueueDepth; callers shed load instead of piling up. Check with errors.Is.
var ErrQueueFull = errors.New("serve: admission queue full")

// admitter is the fair-share admission controller. Queries queue per tenant
// (strict FIFO within a tenant) and tenants are served by deficit
// scheduling: each scheduling round credits every waiting tenant quantum
// bytes of deficit, and a tenant's head query runs once its cost fits the
// tenant's accumulated deficit — so over time tenants are admitted equal
// bytes, and one tenant's burst cannot monopolize the budget. Globally a
// query runs only while the concurrency cap holds and its estimated memory
// cost fits the remaining budget.
//
// Two starvation guards are layered on top. The escape valve (kept from the
// FIFO admitter): a query whose cost alone exceeds the whole budget is
// admitted once nothing else is in flight, rather than waiting forever.
// Priority aging: a query that has watched agingPasses other admissions go
// by has its deficit requirement waived — it then competes on global
// feasibility alone, so a big reporting query behind a stream of cheap ones
// is delayed, never indefinitely.
//
// A session serving a single tenant reduces exactly to the old global FIFO:
// one queue, arrival order, head-of-line blocking and all.
type admitter struct {
	budget  int64
	maxConc int
	depth   int   // global bound on queued waiters
	quantum int64 // deficit credited per round: budget/64, at least 1

	mu       sync.Mutex
	reserved int64
	inFlight int
	queued   int
	tenants  map[string]*tenantQueue
	active   []*tenantQueue // tenants with waiters, in first-wait order
	rr       int            // round-robin cursor into active

	admitted     int64
	rejected     int64
	peakInFlight int
}

// agingPasses is how many other admissions a waiter watches go by before
// its deficit gate is waived.
const agingPasses = 64

type tenantQueue struct {
	name    string
	deficit int64
	fifo    []*waiter
}

type waiter struct {
	tq      *tenantQueue
	cost    int64
	passes  int // admissions of other queries observed while queued
	granted chan struct{}
}

// newAdmitter makes an idle admitter whose levels reg reads under its lock.
func newAdmitter(budget int64, maxConc, depth int, reg *obs.Registry) *admitter {
	a := &admitter{
		budget:  budget,
		maxConc: maxConc,
		depth:   depth,
		quantum: max(budget/64, 1),
		tenants: make(map[string]*tenantQueue),
	}
	for name, level := range map[string]func() int64{
		"queue_depth":    func() int64 { return int64(a.queued) },
		"in_flight":      func() int64 { return int64(a.inFlight) },
		"reserved_bytes": func() int64 { return a.reserved },
	} {
		reg.GaugeFunc("serve.admission."+name, func() int64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return level()
		})
	}
	return a
}

func (a *admitter) tenantLocked(name string) *tenantQueue {
	tq, ok := a.tenants[name]
	if !ok {
		tq = &tenantQueue{name: name}
		a.tenants[name] = tq
	}
	return tq
}

// chargeOf is the deficit a grant consumes: the query's byte cost, floored
// at one quantum. Without the floor, cheap queries (e.g. fully cache-warm
// ones costing ~0 bytes) would let one tenant's burst bank a single round's
// credit into many consecutive grants, recreating the head-of-line blocking
// fair sharing exists to break. With it, leftover deficit after a grant is
// always below one round's quantum, so a tenant yields after every grant
// while others wait — byte fairness for big queries, round-robin for small
// ones.
func (a *admitter) chargeOf(cost int64) int64 {
	if cost < a.quantum {
		return a.quantum
	}
	return cost
}

func (a *admitter) canRunLocked(cost int64) bool {
	if a.inFlight >= a.maxConc {
		return false
	}
	return a.reserved+cost <= a.budget || a.inFlight == 0
}

func (a *admitter) grantLocked(cost int64) {
	a.reserved += cost
	a.inFlight++
	if a.inFlight > a.peakInFlight {
		a.peakInFlight = a.inFlight
	}
	a.admitted++
}

// admit blocks until the query may run, the queue overflows, or ctx ends.
// On success the returned release must be called exactly once when the
// query finishes (however it finishes).
func (a *admitter) admit(ctx context.Context, tenant string, cost int64) (func(), error) {
	a.mu.Lock()
	if a.queued == 0 && a.canRunLocked(cost) {
		a.grantLocked(cost)
		a.mu.Unlock()
		return func() { a.release(cost) }, nil
	}
	if a.queued >= a.depth {
		a.rejected++
		a.mu.Unlock()
		return nil, ErrQueueFull
	}
	tq := a.tenantLocked(tenant)
	w := &waiter{tq: tq, cost: cost, granted: make(chan struct{})}
	if len(tq.fifo) == 0 {
		a.active = append(a.active, tq)
	}
	tq.fifo = append(tq.fifo, w)
	a.queued++
	// The new waiter may be schedulable right away (e.g. its tenant holds
	// deficit while the others' heads do not fit the budget).
	a.scheduleLocked()
	a.mu.Unlock()

	select {
	case <-w.granted:
		return func() { a.release(cost) }, nil
	case <-ctx.Done():
		a.mu.Lock()
		select {
		case <-w.granted:
			// Granted concurrently with cancellation: give the slot back.
			a.releaseLocked(cost)
			a.mu.Unlock()
			return nil, ctx.Err()
		default:
		}
		a.removeWaiterLocked(w)
		// The cancelled waiter may have been the head of the line; whoever
		// is behind it could fit the free capacity right now, so run the
		// scheduler instead of waiting for the next release.
		a.scheduleLocked()
		a.mu.Unlock()
		return nil, ctx.Err()
	}
}

// removeWaiterLocked drops w from its tenant queue (cancellation path).
func (a *admitter) removeWaiterLocked(w *waiter) {
	tq := w.tq
	for i, q := range tq.fifo {
		if q == w {
			tq.fifo = append(tq.fifo[:i], tq.fifo[i+1:]...)
			a.queued--
			break
		}
	}
	if len(tq.fifo) == 0 {
		a.deactivateLocked(tq)
	}
}

// deactivateLocked removes an emptied tenant from the active list and
// resets its deficit: deficit is owed service while waiting, not a bankable
// credit across idle periods (classic DRR).
func (a *admitter) deactivateLocked(tq *tenantQueue) {
	for i, t := range a.active {
		if t == tq {
			a.active = append(a.active[:i], a.active[i+1:]...)
			if a.rr > i {
				a.rr--
			}
			break
		}
	}
	if len(a.active) > 0 {
		a.rr %= len(a.active)
	} else {
		a.rr = 0
	}
	tq.deficit = 0
}

func (a *admitter) release(cost int64) {
	a.mu.Lock()
	a.releaseLocked(cost)
	a.mu.Unlock()
}

func (a *admitter) releaseLocked(cost int64) {
	a.reserved -= cost
	a.inFlight--
	a.scheduleLocked()
}

// scheduleLocked admits every waiter that can run, in fair-share order. Each
// iteration considers only queue heads (within a tenant order is strict
// FIFO) that are globally feasible, and picks the one needing the fewest
// deficit rounds — aged waiters need zero by definition and oldest wins
// among them. Rounds are advanced in one step rather than spun: crediting
// every active tenant quantum per round keeps admitted bytes even without a
// busy loop.
func (a *admitter) scheduleLocked() {
	for {
		var (
			best       *tenantQueue
			bestIdx    int
			bestRounds int64
			bestAged   bool
			bestPasses int
			found      bool
		)
		n := len(a.active)
		for i := 0; i < n; i++ {
			idx := (a.rr + i) % n
			tq := a.active[idx]
			head := tq.fifo[0]
			if !a.canRunLocked(head.cost) {
				continue
			}
			aged := head.passes >= agingPasses
			charge := a.chargeOf(head.cost)
			var rounds int64
			if !aged && tq.deficit < charge {
				rounds = (charge - tq.deficit + a.quantum - 1) / a.quantum
			}
			better := false
			switch {
			case !found:
				better = true
			case aged != bestAged:
				better = aged
			case aged:
				better = head.passes > bestPasses
			default:
				better = rounds < bestRounds
			}
			if better {
				best, bestIdx, bestRounds, bestAged, bestPasses, found = tq, idx, rounds, aged, head.passes, true
			}
		}
		if !found {
			return
		}
		if bestRounds > 0 {
			for _, tq := range a.active {
				tq.deficit += bestRounds * a.quantum
			}
		}
		head := best.fifo[0]
		best.fifo = best.fifo[1:]
		a.queued--
		best.deficit -= a.chargeOf(head.cost)
		if best.deficit < 0 {
			best.deficit = 0
		}
		if len(best.fifo) == 0 {
			a.deactivateLocked(best)
		} else {
			a.rr = (bestIdx + 1) % len(a.active)
		}
		a.grantLocked(head.cost)
		close(head.granted)
		// Everyone still waiting watched an admission go by: age them.
		for _, tq := range a.active {
			for _, w := range tq.fifo {
				w.passes++
			}
		}
	}
}

// snapshot returns (running, queued, admitted, rejected, peak).
func (a *admitter) snapshot() (int, int, int64, int64, int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inFlight, a.queued, a.admitted, a.rejected, a.peakInFlight
}
