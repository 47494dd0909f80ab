package colstore

import (
	"context"
	"errors"
	"testing"

	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/records"
)

// failOnceMapper passes rows through, and on a task's first attempt fails
// at its tenth row.
type failOnceMapper struct {
	attempt, rows int
}

var errFirstAttempt = errors.New("first attempt fails after reading")

func (m *failOnceMapper) Setup(ctx *mr.TaskContext) error {
	m.attempt = ctx.Attempt
	return nil
}

func (m *failOnceMapper) Map(_, v records.Record, out mr.Collector) error {
	if m.rows++; m.attempt == 1 && m.rows == 10 {
		return errFirstAttempt
	}
	return out.Collect(v, records.Record{})
}

func (m *failOnceMapper) Cleanup(mr.Collector) error { return nil }

// TestFailedAttemptLeavesNoOrphans: a map over a row file fails on its first
// attempt after reading records. The failed attempt still ends its map
// phase, so its map span is emitted with the reader's hdfs-read spans as
// its children; the retry succeeds; and the profile has no orphans and
// phase walls that sum to its wall.
func TestFailedAttemptLeavesNoOrphans(t *testing.T) {
	e := newEnv(2, 1<<20)
	if _, err := WriteRowTable(e.fs, "/rows", intsSchema, genIntRows(1000)); err != nil {
		t.Fatal(err)
	}
	col := obs.NewTraceCollector(0, 0)
	tr := obs.NewTracer(col)
	e.engine.SetTracer(tr)
	e.fs.Observe(tr, nil)
	root := obs.NewTrace()
	job := &mr.Job{
		Name:      "fail-once",
		Input:     &RowInput{Dir: "/rows"},
		Output:    &mr.MemoryOutput{},
		NewMapper: func() mr.Mapper { return &failOnceMapper{} },
	}
	res, err := e.engine.Submit(obs.ContextWith(context.Background(), root), job)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Counters.Get(mr.CtrTaskRetries); got != 1 {
		t.Fatalf("TASK_RETRIES = %d, want 1", got)
	}

	spans, _ := col.Take(root.Trace)
	byID := make(map[string]obs.Span, len(spans))
	qs := obs.Span{Name: obs.PhaseQuery}
	for _, s := range spans {
		byID[s.SpanID] = s
		if s.Name == obs.PhaseJob {
			qs.Start, qs.End = s.Start, s.End
		}
	}
	status := map[string]string{} // attempt → status of the task span
	var failedMap string
	for _, s := range spans {
		if s.Name == obs.PhaseTask {
			status[s.Attrs["attempt"]] = s.Attrs["status"]
		}
		if p := byID[s.Parent]; s.Name == obs.PhaseMap && p.Attrs["status"] == "error" {
			failedMap = s.SpanID
		}
	}
	if status["1"] != "error" || status["2"] != "ok" {
		t.Fatalf("task attempts ended %v, want attempt 1 error and attempt 2 ok", status)
	}
	if failedMap == "" {
		t.Fatal("the failed attempt has no map span")
	}
	reads := 0
	for _, s := range spans {
		if s.Name == obs.PhaseHDFSRead && s.Parent == failedMap {
			reads++
		}
	}
	if reads == 0 {
		t.Error("no hdfs-read span is a child of the failed attempt's map span")
	}

	root.Fill(&qs, "")
	p, err := obs.BuildProfile(append(spans, qs), obs.ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Orphans != 0 {
		t.Errorf("profile has %d orphans", p.Orphans)
	}
	if got := p.PhaseWallTotal(); got != p.Wall {
		t.Errorf("phase walls sum to %v, want exactly the wall %v", got, p.Wall)
	}
}
