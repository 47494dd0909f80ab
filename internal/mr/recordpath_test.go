package mr

import (
	"context"
	"errors"
	"testing"

	"clydesdale/internal/records"
)

// failAfterMapper is the word-count mapper, except that one attempt of one
// task fails once it has mapped `after` records. (Job.FailureInjector is
// consulted before an attempt opens its reader, so a failure after records
// were read has to come from inside the task.)
type failAfterMapper struct {
	BaseMapper
	task    string
	attempt int
	after   int

	doomed bool
	seen   int
}

func (m *failAfterMapper) Setup(ctx *TaskContext) error {
	m.doomed = ctx.TaskID == m.task && ctx.Attempt == m.attempt
	return nil
}

func (m *failAfterMapper) Map(_, v records.Record, c Collector) error {
	if m.doomed && m.seen == m.after {
		return errors.New("injected failure after reading records")
	}
	m.seen++
	return c.Collect(v, records.Make(countSchema, records.Int(1)))
}

// TestFailedAttemptCountersAreKept pins what a failed map attempt leaves in
// the job's counters: the records it read and the pairs it collected before
// failing are counted, as they were when every record took the job-wide
// lock. The expected totals were taken at the commit before the per-attempt
// tallies.
func TestFailedAttemptCountersAreKept(t *testing.T) {
	e := newTestEngine(2)
	words := make([]string, 100)
	for i := range words {
		words[i] = string(rune('a' + i%7))
	}
	out := &MemoryOutput{}
	job := wordCountJob(wordSplits(nil, words, words, words), out, 2)
	job.NewMapper = func() Mapper { return &failAfterMapper{task: "m-1", attempt: 1, after: 40} }
	res, err := e.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range countsFrom(out) {
		total += n
	}
	if total != 300 {
		t.Errorf("word counts sum to %d, want 300", total)
	}
	// One pair is a one-letter string key (count byte, kind, length, letter)
	// and an integer 1 (count byte, kind, varint): 7 bytes.
	for _, c := range []struct {
		name string
		want int64
	}{
		{CtrMapTasks, 4},
		{CtrTaskRetries, 1},
		{CtrMapInputRecords, 300 + 41}, // the 41st was read, then refused
		{CtrMapOutputRecords, 300 + 40},
		{CtrMapOutputBytes, 7 * (300 + 40)},
		{CtrReduceInputRecords, 300},
		{CtrReduceInputGroups, 7},
		{CtrReduceOutput, 7},
		{CtrShuffleBytes, 7 * 300},
	} {
		if got := res.Counters.Get(c.name); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
}
