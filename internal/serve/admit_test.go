package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"clydesdale/internal/obs"
)

// testAdmitter builds an admitter with the FIFO-era knobs; a single tenant
// under the fair-share scheduler reduces exactly to the old global FIFO, so
// these tests still pin that contract.
func testAdmitter(budget int64, maxConc, depth int) *admitter {
	return newAdmitter(budget, maxConc, depth, obs.NewRegistry())
}

func mustAdmit(t *testing.T, a *admitter, cost int64) func() {
	t.Helper()
	release, err := a.admit(context.Background(), DefaultTenant, cost)
	if err != nil {
		t.Fatalf("admit(%d): %v", cost, err)
	}
	return release
}

// TestAdmitterFIFO checks arrival fairness: a cheap query queued behind an
// expensive head-of-line waiter must not jump the queue, even though its
// cost alone would fit the remaining budget.
func TestAdmitterFIFO(t *testing.T) {
	a := testAdmitter(100, 4, 8)
	release := mustAdmit(t, a, 50)

	done := make(chan int, 2)
	for i, cost := range []int64{60, 10} {
		i, cost := i, cost
		go func() {
			rel, err := a.admit(context.Background(), DefaultTenant, cost)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			rel()
			done <- i
		}()
		// Ensure deterministic arrival order in the queue.
		for {
			if _, queued, _, _, _ := a.snapshot(); queued == i+1 {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}

	// The 10-byte waiter fits (50+10 <= 100) but sits behind the 60-byte one
	// which does not; FIFO means neither runs.
	time.Sleep(20 * time.Millisecond)
	if running, queued, _, _, _ := a.snapshot(); running != 1 || queued != 2 {
		t.Fatalf("running=%d queued=%d: cheap waiter jumped the FIFO queue", running, queued)
	}

	release()
	<-done
	<-done
	if running, queued, admitted, _, _ := a.snapshot(); running != 0 || queued != 0 || admitted != 3 {
		t.Fatalf("running=%d queued=%d admitted=%d after drain", running, queued, admitted)
	}
}

func TestAdmitterQueueFull(t *testing.T) {
	a := testAdmitter(100, 1, 1)
	release := mustAdmit(t, a, 100)

	queued := make(chan struct{})
	go func() {
		rel, err := a.admit(context.Background(), DefaultTenant, 1)
		if err != nil {
			t.Errorf("queued waiter: %v", err)
			return
		}
		rel()
		close(queued)
	}()
	for {
		if _, n, _, _, _ := a.snapshot(); n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := a.admit(context.Background(), DefaultTenant, 1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow admit: got %v, want ErrQueueFull", err)
	}
	if _, _, _, rejected, _ := a.snapshot(); rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", rejected)
	}

	release()
	<-queued
}

func TestAdmitterCancelWhileQueued(t *testing.T) {
	a := testAdmitter(100, 1, 8)
	release := mustAdmit(t, a, 100)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := a.admit(ctx, DefaultTenant, 1)
		errc <- err
	}()
	for {
		if _, n, _, _, _ := a.snapshot(); n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: got %v, want context.Canceled", err)
	}
	// The canceled waiter must have left the queue so release has nobody
	// stale to grant.
	if _, queued, _, _, _ := a.snapshot(); queued != 0 {
		t.Fatalf("queue length %d after cancel, want 0", queued)
	}
	release()
	if running, _, _, _, _ := a.snapshot(); running != 0 {
		t.Fatalf("running %d after release, want 0", running)
	}
}

// TestAdmitterEscapeValve: a query costing more than the whole budget still
// runs once the system is idle, instead of queueing forever.
func TestAdmitterEscapeValve(t *testing.T) {
	a := testAdmitter(100, 2, 8)
	release := mustAdmit(t, a, 500)
	if running, _, _, _, _ := a.snapshot(); running != 1 {
		t.Fatalf("over-budget query not admitted on idle admitter")
	}
	// While it runs, a second over-budget query must wait.
	done := make(chan struct{})
	go func() {
		rel, err := a.admit(context.Background(), DefaultTenant, 500)
		if err != nil {
			t.Errorf("second over-budget query: %v", err)
			return
		}
		rel()
		close(done)
	}()
	for {
		if _, n, _, _, _ := a.snapshot(); n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, _, _, peak := a.snapshot(); peak != 1 {
		t.Fatalf("peak %d, want over-budget queries serialized", peak)
	}
	release()
	<-done
}

func TestAdmitterConcurrencyCap(t *testing.T) {
	a := testAdmitter(1000, 2, 8)
	r1 := mustAdmit(t, a, 1)
	r2 := mustAdmit(t, a, 1)

	granted := make(chan struct{})
	go func() {
		rel, err := a.admit(context.Background(), DefaultTenant, 1)
		if err != nil {
			t.Errorf("third query: %v", err)
			return
		}
		close(granted)
		rel()
	}()
	select {
	case <-granted:
		t.Fatal("third query ran above MaxConcurrent")
	case <-time.After(20 * time.Millisecond):
	}
	r1()
	<-granted
	r2()
}

// TestAdmitterCancelHeadWakesQueue is the head-of-line wake regression: a
// cheap waiter queued behind an expensive cancelled head must be admitted
// the moment the head leaves, not at the next release.
func TestAdmitterCancelHeadWakesQueue(t *testing.T) {
	a := testAdmitter(100, 4, 8)
	release := mustAdmit(t, a, 50)
	defer release()

	headCtx, cancelHead := context.WithCancel(context.Background())
	headErr := make(chan error, 1)
	go func() {
		_, err := a.admit(headCtx, DefaultTenant, 60) // 50+60 > 100: blocks
		headErr <- err
	}()
	for {
		if _, n, _, _, _ := a.snapshot(); n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	granted := make(chan func(), 1)
	go func() {
		rel, err := a.admit(context.Background(), DefaultTenant, 10) // fits, but behind the head
		if err != nil {
			t.Errorf("cheap waiter: %v", err)
			return
		}
		granted <- rel
	}()
	for {
		if _, n, _, _, _ := a.snapshot(); n == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	cancelHead()
	if err := <-headErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled head: got %v, want context.Canceled", err)
	}
	select {
	case rel := <-granted:
		rel()
	case <-time.After(2 * time.Second):
		t.Fatal("waiter behind cancelled head not woken until next release")
	}
}

// TestAdmitterFairShareInterleaves: a tenant arriving behind another
// tenant's backlog is served interleaved with it, not after the whole
// backlog drains (the global-FIFO failure mode).
func TestAdmitterFairShareInterleaves(t *testing.T) {
	a := testAdmitter(100, 1, 16)
	release := mustAdmit(t, a, 10)

	order := make(chan string, 8)
	enqueue := func(tenant string, n int) {
		_, before, _, _, _ := a.snapshot()
		go func() {
			rel, err := a.admit(context.Background(), tenant, 10)
			if err != nil {
				t.Errorf("%s: %v", tenant, err)
				return
			}
			order <- tenant
			rel()
		}()
		for {
			if _, queued, _, _, _ := a.snapshot(); queued == before+n {
				break
			}
			time.Sleep(time.Millisecond)
		}
		_ = before
	}
	for i := 0; i < 4; i++ {
		enqueue("bulk", 1)
	}
	enqueue("dash", 1)

	release()
	first, second := <-order, <-order
	if first != "bulk" || second != "dash" {
		t.Fatalf("first grants = %s, %s; want the dash tenant interleaved after one bulk grant", first, second)
	}
	for i := 0; i < 3; i++ {
		if got := <-order; got != "bulk" {
			t.Fatalf("grant %d = %s, want bulk backlog", i+3, got)
		}
	}
}

// TestAdmitterAgingUnstarves: a query costing more than the whole budget, in
// one tenant, behind a stream of cheap queries from another is admitted once
// it has watched agingPasses admissions go by. Without aging it would lose
// every round while cheap heads keep arriving: a cheap head needs one round
// of deficit, the heavy one 6 400.
func TestAdmitterAgingUnstarves(t *testing.T) {
	a := testAdmitter(6400, 1, 2*agingPasses)
	release := mustAdmit(t, a, 10)

	const light = agingPasses + 6
	order := make(chan string, light+1)
	enqueue := func(tenant string, cost int64) {
		_, before, _, _, _ := a.snapshot()
		go func() {
			rel, err := a.admit(context.Background(), tenant, cost)
			if err != nil {
				t.Errorf("%s: %v", tenant, err)
				return
			}
			order <- tenant
			rel()
		}()
		for {
			if _, queued, _, _, _ := a.snapshot(); queued == before+1 {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	enqueue("heavy", 100*6400)
	for i := 0; i < light; i++ {
		enqueue("light", 10)
	}

	release()
	got := make([]string, light+1)
	for i := range got {
		got[i] = <-order
	}
	pos := -1
	for i, tenant := range got {
		if tenant == "heavy" {
			pos = i
			break
		}
	}
	// agingPasses light admissions age the heavy head; the next grant must
	// be the heavy query.
	if pos != agingPasses {
		t.Fatalf("heavy query admitted at position %d of %v, want %d (after agingPasses light grants)", pos, got, agingPasses)
	}
}
