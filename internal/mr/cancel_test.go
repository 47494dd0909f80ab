package mr

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"clydesdale/internal/records"
)

// blockingMapper reserves memory in Setup, signals that it started, and then
// parks until the job's context is canceled — the shape of a long map task
// that honours cancellation.
type blockingMapper struct {
	started *atomic.Int64
	ready   chan<- struct{}
	tc      *TaskContext
}

func (m *blockingMapper) Setup(ctx *TaskContext) error {
	m.tc = ctx
	if err := ctx.ReserveMemory(1 << 20); err != nil {
		return err
	}
	m.started.Add(1)
	select {
	case m.ready <- struct{}{}:
	default:
	}
	<-ctx.runCtx.Done()
	return ctx.Err()
}

func (m *blockingMapper) Map(_, v records.Record, c Collector) error { return nil }
func (m *blockingMapper) Cleanup(c Collector) error                  { return nil }

// TestSubmitCancelReleasesMemory cancels a job while its first wave of map
// attempts is blocked mid-task and verifies the three cancellation
// guarantees: the returned error is typed (ErrCanceled and the context
// cause), queued attempts never launch, and every reserved byte is back.
func TestSubmitCancelReleasesMemory(t *testing.T) {
	e := newTestEngine(2) // 2 nodes × 2 map slots = 4 concurrent attempts
	const splits = 8
	var batches [][]string
	for i := 0; i < splits; i++ {
		batches = append(batches, []string{"x"})
	}
	var started atomic.Int64
	ready := make(chan struct{}, splits)
	// Round-robin locality so every slot worker finds a local task at once;
	// without it idle workers park waiting for a completion broadcast that
	// blocked mappers never send.
	hosts := func(i int) []string { return []string{"node-0", "node-1"}[i%2 : i%2+1] }
	job := &Job{
		Name:   "cancelme",
		Input:  &MemoryInput{SplitsList: wordSplits(hosts, batches...)},
		Output: &MemoryOutput{},
		NewMapper: func() Mapper {
			return &blockingMapper{started: &started, ready: ready}
		},
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := e.Submit(ctx, job)
		done <- err
	}()

	// Wait for every slot in the cluster to be occupied by a blocked attempt,
	// so the remaining tasks are provably queued when the cancel lands.
	for i := 0; i < 4; i++ {
		select {
		case <-ready:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d attempts started before timeout", started.Load())
		}
	}
	cancel()

	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Submit did not return after cancel")
	}
	if err == nil {
		t.Fatal("Submit returned nil error for canceled job")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("error %v does not match ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not match context.Canceled", err)
	}
	if n := started.Load(); n >= splits {
		t.Errorf("all %d tasks started; queued attempts were not killed", n)
	}
	for _, n := range e.Cluster().Alive() {
		if used := n.MemoryUsed(); used != 0 {
			t.Errorf("node %s still has %d bytes reserved after cancel", n.ID(), used)
		}
	}
}

// TestSubmitDeadlineExceeded verifies an already-expired context aborts the
// job before any task launches and maps to the deadline error.
func TestSubmitDeadlineExceeded(t *testing.T) {
	e := newTestEngine(2)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	out := &MemoryOutput{}
	splits := wordSplits(nil, []string{"a", "b"})
	_, err := e.Submit(ctx, wordCountJob(splits, out, 1))
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrCanceled wrapping DeadlineExceeded, got %v", err)
	}
	if len(out.Pairs()) != 0 {
		t.Fatalf("expired job produced output")
	}
}
