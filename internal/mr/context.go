package mr

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clydesdale/internal/cluster"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/obs"
)

// JVM models one reusable task runtime on a node: with JVM reuse enabled the
// engine hands the next task of the job on that node the same JVM instead
// of starting (and charging for) a fresh one (§5.2).
type JVM struct {
	ID int64
}

var jvmSeq atomic.Int64

// jvmPool manages the JVMs of one (job, node) pair.
type jvmPool struct {
	mu   sync.Mutex
	idle []*JVM
}

// acquire returns an idle JVM when reuse is enabled, else a fresh one.
// The second return reports whether a new JVM was created.
func (p *jvmPool) acquire(reuse bool) (*JVM, bool) {
	if reuse {
		p.mu.Lock()
		if n := len(p.idle); n > 0 {
			jvm := p.idle[n-1]
			p.idle = p.idle[:n-1]
			p.mu.Unlock()
			return jvm, false
		}
		p.mu.Unlock()
	}
	return &JVM{ID: jvmSeq.Add(1)}, true
}

// release returns a JVM to the pool when reuse is enabled.
func (p *jvmPool) release(jvm *JVM, reuse bool) {
	if !reuse {
		return
	}
	p.mu.Lock()
	p.idle = append(p.idle, jvm)
	p.mu.Unlock()
}

// JobContext is the job-scoped view handed to InputFormat.Splits.
type JobContext struct {
	JobID    string
	Conf     Conf
	FS       *hdfs.FileSystem
	Cluster  *cluster.Cluster
	Counters *Counters
	// Tracer receives sub-phase spans; nil or sink-less means tracing is
	// disabled (the fast path). Input formats and runners may emit into it
	// directly or via TaskContext.Span.
	Tracer *obs.Tracer
	// Trace is the job span's position in the submitting query's trace
	// (zero when the submission was untraced). Task attempts and driver-side
	// phases (prune) parent their spans under it, which is what makes one
	// query's spans one tree even with concurrent queries interleaving.
	Trace obs.SpanContext
}

// TaskContext is the task-scoped view handed to mappers, reducers, runners,
// and formats.
type TaskContext struct {
	*JobContext
	TaskID  string
	Attempt int
	node    *cluster.Node
	jvm     *JVM
	job     *Job
	sc      obs.SpanContext

	memMu       sync.Mutex
	memReserved int64
	allowance   int64
	superseded  func() bool
	runCtx      context.Context

	phaseMu sync.Mutex
	phases  map[string]time.Duration

	tally tally
}

// ObservePhase accumulates d into this attempt's named sub-phase duration,
// which ends up in the attempt's TaskReport.Phases. Threads of a
// multi-threaded task may observe the same phase concurrently; their
// durations sum (so summed thread time can exceed wall time).
func (t *TaskContext) ObservePhase(name string, d time.Duration) {
	t.phaseMu.Lock()
	if t.phases == nil {
		t.phases = make(map[string]time.Duration, 8)
	}
	t.phases[name] += d
	t.phaseMu.Unlock()
}

// Phases returns a copy of the attempt's accumulated sub-phase durations.
func (t *TaskContext) Phases() map[string]time.Duration {
	t.phaseMu.Lock()
	defer t.phaseMu.Unlock()
	if len(t.phases) == 0 {
		return nil
	}
	out := make(map[string]time.Duration, len(t.phases))
	for k, v := range t.phases {
		out[k] = v
	}
	return out
}

// Span records a completed sub-phase that started at start and ends now:
// it accumulates into the attempt's phase durations and, when tracing is
// enabled, emits a span to the job's tracer, parented under this attempt's
// task span. attrs are alternating key/value pairs, attached only when
// tracing is enabled.
func (t *TaskContext) Span(name string, start time.Time, attrs ...string) {
	end := time.Now()
	t.ObservePhase(name, end.Sub(start))
	if t.Tracer.Enabled() {
		s := obs.Span{
			Job:    t.JobID,
			Name:   name,
			Node:   t.node.ID(),
			TaskID: t.TaskID,
			Start:  start,
			End:    end,
			Attrs:  obs.Attrs(attrs...),
		}
		t.sc.NewChild().Fill(&s, t.sc.Span)
		t.Tracer.Emit(s)
	}
}

// TraceContext returns the attempt span's trace position. Work done on
// behalf of this attempt in other layers (HDFS reads, column loads) parents
// its spans here so it lands inside the attempt in the assembled profile.
func (t *TaskContext) TraceContext() obs.SpanContext { return t.sc }

// Superseded reports whether another attempt of this task already finished
// (speculative execution); long-running mappers may poll it and abandon
// their work.
func (t *TaskContext) Superseded() bool {
	return t.superseded != nil && t.superseded()
}

// Err is a cheap poll of the submission context: nil while the job is live,
// the context's error once the job has been canceled.
func (t *TaskContext) Err() error {
	if t.runCtx == nil {
		return nil
	}
	return t.runCtx.Err()
}

// Node returns the cluster node the task runs on.
func (t *TaskContext) Node() *cluster.Node { return t.node }

// ReserveMemory reserves b bytes against both the task allowance and the
// node budget, returning cluster.ErrOutOfMemory when either is exceeded.
// Reservations are released automatically when the task attempt ends.
func (t *TaskContext) ReserveMemory(b int64) error {
	t.memMu.Lock()
	if t.memReserved+b > t.allowance {
		reserved := t.memReserved
		t.memMu.Unlock()
		return fmt.Errorf("%w: task %s wants %d with %d reserved of %d allowance",
			cluster.ErrOutOfMemory, t.TaskID, b, reserved, t.allowance)
	}
	t.memMu.Unlock()
	if err := t.node.ReserveMemory(b); err != nil {
		return err
	}
	t.memMu.Lock()
	t.memReserved += b
	t.memMu.Unlock()
	return nil
}

// releaseAll returns every outstanding reservation to the node.
func (t *TaskContext) releaseAll() {
	t.memMu.Lock()
	b := t.memReserved
	t.memReserved = 0
	t.memMu.Unlock()
	if b > 0 {
		t.node.ReleaseMemory(b)
	}
}

// CacheFile returns the node-local copy of a distributed-cache file. The
// engine copies each cache file to each node at most once per job.
func (t *TaskContext) CacheFile(path string) ([]byte, error) {
	key := cacheKey(t.JobID, path)
	data, ok := t.node.GetLocal(key)
	if !ok {
		return nil, fmt.Errorf("mr: cache file %s not localized on %s", path, t.node.ID())
	}
	return data, nil
}

func cacheKey(jobID, path string) string { return "dcache/" + jobID + path }
