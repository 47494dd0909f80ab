package mr

import (
	"context"
	"testing"
	"time"

	"clydesdale/internal/cluster"
	"clydesdale/internal/hdfs"
)

// BenchmarkSubmitEmptyJob is the engine's fixed cost per job: one empty
// split, four reducers, on 4 nodes x 2 slots with no modeled time. Nothing
// maps or reduces, so what is left is scheduling, goroutine hand-offs and
// bookkeeping; a scheduler that waits on a timer shows here first.
func BenchmarkSubmitEmptyJob(b *testing.B) {
	cfg := cluster.Testing(4)
	cfg.ReduceSlots = 2
	c := cluster.New(cfg)
	e := NewEngine(c, hdfs.New(c, hdfs.Options{Seed: 11}), Options{})
	job := wordCountJob([]*MemorySplit{{}}, &MemoryOutput{}, 4)
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := e.Submit(ctx, job); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDispatch is the scheduler alone: a phase of 32 single-holder
// tasks over 4 nodes x 2 slots played as a script, the oldest running
// attempt finishing first, so every completion is followed by one dispatch
// that assigns one local task.
func BenchmarkDispatch(b *testing.B) {
	locations := hostsOf(32, 4)
	nodes := nodeNames(4)
	now := time.Unix(0, 0)
	b.ReportAllocs()
	for b.Loop() {
		s := newTaskSched("m", nodes, 2, 4, locations)
		running := s.start(now)
		for len(running) > 0 {
			_, next := s.complete(running[0], nil, now)
			running = append(running[1:], next...)
		}
		if err := s.result("map"); err != nil {
			b.Fatal(err)
		}
	}
}
