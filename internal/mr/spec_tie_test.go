package mr

import (
	"context"
	"fmt"
	"testing"
	"time"

	"clydesdale/internal/cluster"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/obs"
	"clydesdale/internal/records"
)

// rendezvousMapper blocks every attempt of the single task at a barrier and
// waits for the test to release it, so the test controls which attempt of a
// speculative race reaches complete() first.
type rendezvousMapper struct {
	ctx     *TaskContext
	arrived chan<- int
	release map[int]chan struct{}
}

func (m *rendezvousMapper) Setup(ctx *TaskContext) error { m.ctx = ctx; return nil }
func (m *rendezvousMapper) Cleanup(Collector) error      { return nil }
func (m *rendezvousMapper) Map(_, v records.Record, out Collector) error {
	if err := m.ctx.ReserveMemory(1 << 20); err != nil {
		return err
	}
	m.arrived <- m.ctx.Attempt
	<-m.release[m.ctx.Attempt]
	return out.Collect(v, records.Make(countSchema, records.Int(1)))
}

// TestSpeculativeTieBothOrders is the regression test for the
// speculative-race publication path: whichever of the original and backup
// attempt completes first, exactly one attempt wins — one task report, one
// duration sample, one stored output — and the loser's memory reservation
// is released. Before the won-gating fix, both successful attempts reported
// and double-counted metrics when they finished near-simultaneously.
func TestSpeculativeTieBothOrders(t *testing.T) {
	for _, winner := range []int{1, 2} {
		name := "original-first"
		if winner == 2 {
			name = "backup-first"
		}
		t.Run(name, func(t *testing.T) {
			c := cluster.New(cluster.Testing(2))
			fs := hdfs.New(c, hdfs.Options{Seed: 11})
			reg := obs.NewRegistry()
			e := NewEngine(c, fs, Options{Metrics: reg})

			arrived := make(chan int, 2)
			release := map[int]chan struct{}{1: make(chan struct{}), 2: make(chan struct{})}
			out := &MemoryOutput{}
			job := &Job{
				Name:  fmt.Sprintf("spec-tie-%s", name),
				Conf:  Conf{Speculative: true},
				Input: &MemoryInput{SplitsList: []*MemorySplit{bigWordSplit("w", 1, "node-0")}},
				NewMapper: func() Mapper {
					return &rendezvousMapper{arrived: arrived, release: release}
				},
				NewReducer: func() Reducer {
					return ReducerFunc(func(k records.Record, vs Values, out Collector) error {
						var sum int64
						for v, ok := vs.Next(); ok; v, ok = vs.Next() {
							sum += v.Get("n").Int64()
						}
						return out.Collect(k, records.Make(countSchema, records.Int(sum)))
					})
				},
				Output:         out,
				NumReduceTasks: 1,
				KeySchema:      wordSchema,
				ValueSchema:    countSchema,
			}

			done := make(chan struct{})
			go func() {
				defer close(done)
				// Both the original (attempt 1, node-0) and the speculative
				// backup (attempt 2, node-1) must be in flight before either
				// is allowed to finish.
				<-arrived
				<-arrived
				close(release[winner])
				time.Sleep(20 * time.Millisecond)
				close(release[3-winner])
			}()

			res, err := e.Submit(context.Background(), job)
			<-done
			if err != nil {
				t.Fatal(err)
			}

			if got := countsFrom(out); got["w"] != 1 {
				t.Errorf("count = %v, want w:1 (loser's output double-counted?)", got)
			}
			if got := res.Counters.Get(CtrSpeculativeMaps); got != 1 {
				t.Errorf("SPECULATIVE_MAPS = %d, want 1", got)
			}
			reports := 0
			for _, r := range res.Tasks {
				if r.TaskID == "m-0" {
					reports++
				}
			}
			if reports != 1 {
				t.Errorf("%d task reports for m-0, want exactly 1", reports)
			}
			if got := reg.Histogram("mr.map.duration_ns").Count(); got != 1 {
				t.Errorf("map duration observed %d times, want 1", got)
			}
			// Both attempts reserved 1 MB; winner and loser must both have
			// released it.
			for _, n := range c.Nodes() {
				if used := n.MemoryUsed(); used != 0 {
					t.Errorf("%s: %d bytes leaked by speculative race", n.ID(), used)
				}
			}
		})
	}
}
