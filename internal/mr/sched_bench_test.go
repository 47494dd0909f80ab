package mr

import (
	"context"
	"testing"
	"time"

	"clydesdale/internal/cluster"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/records"
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

// BenchmarkShuffle is the record path end to end, the job the repository
// benchmark's mr.shuffle_ns_per_record probe times: 200 000 integer pairs
// over 4 splits, mapped, sorted, shuffled to 4 reducers and written out
// unchanged. ns/record is the per-pair cost of collect, sort, merge and
// decode; allocs/op is per job and must not grow with the pairs.
func BenchmarkShuffle(b *testing.B) {
	const pairs, splits, reducers = 200_000, 4, 4
	cfg := cluster.Testing(4)
	cfg.ReduceSlots = 2
	c := cluster.New(cfg)
	e := NewEngine(c, hdfs.New(c, hdfs.Options{Seed: 11}), Options{})
	in := &MemoryInput{}
	for s := 0; s < splits; s++ {
		sp := &MemorySplit{}
		for i := 0; i < pairs/splits; i++ {
			n := int64(s*pairs/splits + i)
			sp.Pairs = append(sp.Pairs, KV{
				Key:   records.Make(countSchema, records.Int(n*2654435761%pairs)),
				Value: records.Make(countSchema, records.Int(n)),
			})
		}
		in.SplitsList = append(in.SplitsList, sp)
	}
	job := &Job{
		Name:   "bench-identity",
		Input:  in,
		Output: DiscardOutput{},
		NewMapper: func() Mapper {
			return MapperFunc(func(k, v records.Record, out Collector) error { return out.Collect(k, v) })
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(k records.Record, vs Values, out Collector) error {
				for v, ok := vs.Next(); ok; v, ok = vs.Next() {
					if err := out.Collect(k, v); err != nil {
						return err
					}
				}
				return nil
			})
		},
		NumReduceTasks: reducers,
		KeySchema:      countSchema,
		ValueSchema:    countSchema,
	}
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := e.Submit(ctx, job); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pairs, "ns/record")
}
