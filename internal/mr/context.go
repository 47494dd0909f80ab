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
	// directly or via TaskContext.Begin.
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
	open    []obs.SpanContext // phases Begin opened that have not ended, innermost last

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

// Phase is a sub-phase of a task attempt, open from Begin or BeginThread
// until End. It is a value, so opening a phase allocates nothing.
type Phase struct {
	// Trace is the phase's position in the attempt's trace.
	Trace obs.SpanContext

	t      *TaskContext
	name   string
	parent obs.SpanContext
	start  time.Time
	depth  int // Begin's: how many phases were open below it; BeginThread's: -1
}

// Begin opens the named sub-phase of the attempt, on the attempt's own
// goroutine: a child of the innermost open phase, or of the attempt's task
// span when none is open. It stays innermost, so TraceContext returns it,
// until End. A phase with children must end on every path out of it, or its
// children are orphans.
func (t *TaskContext) Begin(name string) Phase {
	p := t.BeginThread(name)
	t.phaseMu.Lock()
	p.depth = len(t.open)
	t.open = append(t.open, p.Trace)
	t.phaseMu.Unlock()
	return p
}

// BeginThread is Begin for a thread the attempt started: the phase is a
// child of the innermost open phase but does not become innermost, so any
// number of threads may hold phases at once. Work inside it parents its
// spans at the phase's Trace explicitly.
func (t *TaskContext) BeginThread(name string) Phase {
	parent := t.TraceContext()
	return Phase{Trace: parent.NewChild(), t: t, name: name, parent: parent, start: time.Now(), depth: -1}
}

// End closes the phase, and any phase opened inside it with Begin that was
// left open. It accumulates the phase's duration into the attempt's phase
// durations and, when tracing is enabled, emits its span; attrs are
// alternating key/value pairs, attached only then.
func (p Phase) End(attrs ...string) {
	t, end := p.t, time.Now()
	if p.depth >= 0 {
		t.phaseMu.Lock()
		t.open = t.open[:p.depth]
		t.phaseMu.Unlock()
	}
	t.ObservePhase(p.name, end.Sub(p.start))
	if t.Tracer.Enabled() {
		s := obs.Span{Job: t.JobID, Name: p.name, Node: t.node.ID(), TaskID: t.TaskID, Start: p.start, End: end, Attrs: obs.Attrs(attrs...)}
		p.Trace.Fill(&s, p.parent.Span)
		t.Tracer.Emit(s)
	}
}

// TraceContext returns the innermost open phase's trace position, or the
// attempt span's when no phase is open. Work done on behalf of this attempt
// in other layers (HDFS reads, column loads) parents its spans here so it
// lands inside the phase that did it in the assembled profile.
func (t *TaskContext) TraceContext() obs.SpanContext {
	t.phaseMu.Lock()
	defer t.phaseMu.Unlock()
	if n := len(t.open); n > 0 {
		return t.open[n-1]
	}
	return t.sc
}

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
