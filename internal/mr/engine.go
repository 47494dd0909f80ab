package mr

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clydesdale/internal/cluster"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/obs"
	"clydesdale/internal/records"
)

// Options tunes engine-level behaviour.
type Options struct {
	// TaskLaunchOverhead is the modeled fixed cost of launching any task
	// (scheduler round trip, process setup). Hadoop's is on the order of
	// seconds; it is what block iteration and multi-splits amortize.
	TaskLaunchOverhead time.Duration
	// JVMStartup is the modeled cost of starting a fresh JVM; avoided for
	// reused JVMs.
	JVMStartup time.Duration
	// MaxTaskAttempts bounds retries per task (Hadoop default 4).
	MaxTaskAttempts int
	// Tracer receives per-attempt sub-phase spans (the job-history
	// timeline). Nil or sink-less disables tracing at ~zero cost.
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives engine-level histograms and counters
	// (task durations, queue waits, shuffle traffic).
	Metrics *obs.Registry
}

// Engine runs MapReduce jobs over a cluster and filesystem.
type Engine struct {
	cluster *cluster.Cluster
	fs      *hdfs.FileSystem
	opts    Options
	jobSeq  atomic.Int64 // jobs submitted: the job IDs and mr.jobs_submitted
	// observed holds the registries that read jobSeq, each registered with
	// once.
	observed map[*obs.Registry]bool

	hostOnce sync.Once
	host     any // see Host
}

// NewEngine creates an engine. Zero options mean no modeled overheads and
// 4 attempts per task.
func NewEngine(c *cluster.Cluster, fs *hdfs.FileSystem, opts Options) *Engine {
	if opts.MaxTaskAttempts <= 0 {
		opts.MaxTaskAttempts = 4
	}
	e := &Engine{cluster: c, fs: fs, opts: opts}
	e.SetMetrics(opts.Metrics)
	return e
}

// Cluster returns the engine's cluster.
func (e *Engine) Cluster() *cluster.Cluster { return e.cluster }

// FS returns the engine's filesystem.
func (e *Engine) FS() *hdfs.FileSystem { return e.fs }

// Tracer returns the engine's tracer (possibly nil).
func (e *Engine) Tracer() *obs.Tracer { return e.opts.Tracer }

// SetTracer attaches a tracer. Call between jobs, not during one.
func (e *Engine) SetTracer(t *obs.Tracer) { e.opts.Tracer = t }

// Metrics returns the engine's metrics registry (possibly nil).
func (e *Engine) Metrics() *obs.Registry { return e.opts.Metrics }

// SetMetrics attaches a metrics registry. Call between jobs, not during one.
// The registry's mr.jobs_submitted counts the engine's jobs from its
// creation.
func (e *Engine) SetMetrics(r *obs.Registry) {
	e.opts.Metrics = r
	if r == nil || e.observed[r] {
		return
	}
	if e.observed == nil {
		e.observed = make(map[*obs.Registry]bool)
	}
	e.observed[r] = true
	r.CounterFunc("mr.jobs_submitted", e.jobSeq.Load)
}

// Host returns the state every serving session over the engine shares (the
// nodes' table cache and admission), made by newHost on the first call.
func (e *Engine) Host(newHost func() any) any {
	e.hostOnce.Do(func() { e.host = newHost() })
	return e.host
}

// ErrCanceled marks a job that was stopped because its submission context
// was canceled or timed out. Errors returned by Submit for such jobs match
// both errors.Is(err, ErrCanceled) and the context's own cause
// (context.Canceled / context.DeadlineExceeded).
var ErrCanceled = errors.New("mr: job canceled")

// jobRun carries the state of one executing job.
type jobRun struct {
	engine   *Engine
	job      *Job
	ctx      context.Context
	jobID    string
	jctx     *JobContext
	counters *Counters
	splits   []InputSplit

	outMu      sync.Mutex
	mapOutputs []*mapOutput

	jvmMu    sync.Mutex
	jvmPools map[string]*jvmPool // node → pool

	reports []TaskReport // appended by the goroutine running the phase

	taskMem int64 // per-task memory requirement (allowance)
	reuse   bool
}

// Submit runs the job to completion and returns its result. A canceled or
// expired ctx aborts the job: queued task attempts are never launched,
// running attempts stop at their next poll point, and every byte the job
// reserved on cluster nodes is released before Submit returns. The returned
// error then matches both ErrCanceled and ctx.Err() under errors.Is.
func (e *Engine) Submit(ctx context.Context, job *Job) (res *JobResult, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	jobID := fmt.Sprintf("job-%d", e.jobSeq.Add(1))
	counters := NewCounters()
	jctx := &JobContext{JobID: jobID, Conf: job.Conf, FS: e.fs, Cluster: e.cluster, Counters: counters, Tracer: e.opts.Tracer}

	// A traced submission (serve/core put a SpanContext in ctx) gets a job
	// span: the root of this job's subtree in the query's trace. Deferred so
	// error paths are covered too, and the job span always outlasts every
	// task span parented under it.
	parentSC, _ := obs.FromContext(ctx)
	jctx.Trace = parentSC.NewChild()
	if tr := e.opts.Tracer; tr.Enabled() && jctx.Trace.Valid() {
		defer func() {
			status := "ok"
			if err != nil {
				status = "error"
			}
			s := obs.Span{Job: jobID, Name: obs.PhaseJob, Start: start, End: time.Now(),
				Attrs: obs.Attrs("status", status)}
			jctx.Trace.Fill(&s, parentSC.Span)
			tr.Emit(s)
		}()
	}

	if job.Input == nil {
		return nil, fmt.Errorf("mr: %s: job has no InputFormat", jobID)
	}
	if job.Output == nil {
		return nil, fmt.Errorf("mr: %s: job has no OutputFormat", jobID)
	}
	if job.NewMapper == nil && job.NewMapRunner == nil {
		return nil, fmt.Errorf("mr: %s: job has neither a Mapper nor a MapRunner", jobID)
	}
	if job.NumReduceTasks > 0 && job.NewReducer == nil {
		return nil, fmt.Errorf("mr: %s: %d reduce tasks but no Reducer", jobID, job.NumReduceTasks)
	}
	if job.Partitioner == nil {
		job.Partitioner = HashPartitioner
	}

	splits, err := job.Input.Splits(jctx)
	if err != nil {
		return nil, fmt.Errorf("mr: %s: computing splits: %w", jobID, err)
	}

	run := &jobRun{
		engine:     e,
		job:        job,
		ctx:        ctx,
		jobID:      jobID,
		jctx:       jctx,
		counters:   counters,
		splits:     splits,
		mapOutputs: make([]*mapOutput, len(splits)),
		jvmPools:   make(map[string]*jvmPool),
		reuse:      job.Conf.JVMReuse,
	}
	defer run.releaseOutputs()
	run.taskMem = job.Conf.TaskMemory
	if run.taskMem <= 0 {
		cfg := e.cluster.Config()
		run.taskMem = cfg.MemoryPerNode / int64(cfg.MapSlots)
	}

	if err := ctx.Err(); err != nil {
		return nil, run.cancelErr(err)
	}
	if err := run.localizeCacheFiles(); err != nil {
		return nil, fmt.Errorf("mr: %s: distributed cache: %w", jobID, err)
	}
	if err := run.mapPhase(); err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, run.cancelErr(cerr)
		}
		return nil, fmt.Errorf("mr: %s: map phase: %w", jobID, err)
	}
	if job.NumReduceTasks > 0 {
		if err := run.reducePhase(); err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, run.cancelErr(cerr)
			}
			return nil, fmt.Errorf("mr: %s: reduce phase: %w", jobID, err)
		}
	}

	return &JobResult{
		JobID:    jobID,
		Counters: counters,
		Tasks:    run.reports,
		Duration: time.Since(start),
	}, nil
}

// releaseOutputs recycles the buffers of the map outputs the job holds.
// Submit defers it, so it runs after the last phase on every way out, and a
// phase returns only once each attempt it started has reported back: no
// attempt reads an output any more. A speculative loser's output was never
// held and one replaced in fetchPartition no longer is; both are left to the
// collector.
func (run *jobRun) releaseOutputs() {
	for _, mo := range run.mapOutputs {
		if mo != nil {
			mo.pairs.release()
		}
	}
}

// cancelErr shapes the error Submit returns for a canceled job so that
// errors.Is matches both ErrCanceled and the context cause.
func (run *jobRun) cancelErr(cause error) error {
	return fmt.Errorf("mr: %s: %w: %w", run.jobID, ErrCanceled, cause)
}

// localizeCacheFiles copies each distributed-cache file to every live node
// exactly once (charging the broadcast traffic), as Hadoop's distributed
// cache does (§6.1).
func (run *jobRun) localizeCacheFiles() error {
	for _, path := range run.job.CacheFiles {
		data, err := run.engine.fs.ReadAll(path, "")
		if err != nil {
			return err
		}
		key := cacheKey(run.jobID, path)
		for _, n := range run.engine.cluster.Alive() {
			if n.HasLocal(key) {
				continue
			}
			if err := n.ChargeNet(int64(len(data))); err != nil {
				return err
			}
			if err := n.ChargeDiskWrite(int64(len(data)), false); err != nil {
				return err
			}
			if err := n.PutLocal(key, data); err != nil {
				return err
			}
			run.counters.Add(CtrCacheCopies, 1)
		}
	}
	return nil
}

// pool returns the JVM pool for a node.
func (run *jobRun) pool(node string) *jvmPool {
	run.jvmMu.Lock()
	defer run.jvmMu.Unlock()
	p, ok := run.jvmPools[node]
	if !ok {
		p = &jvmPool{}
		run.jvmPools[node] = p
	}
	return p
}

// capPerNode computes the concurrent-task cap the capacity scheduler
// enforces from the per-task memory requirement (§5.2: requesting the whole
// node's memory yields one task per node).
func (run *jobRun) capPerNode() int {
	cfg := run.engine.cluster.Config()
	cap := int(cfg.MemoryPerNode / run.taskMem)
	if cap < 1 {
		cap = 1
	}
	if cap > cfg.MapSlots {
		cap = cfg.MapSlots
	}
	return cap
}

// emitSpanUnder emits one completed span, parented at the given trace
// position, when tracing is enabled; a no-op (one atomic load) otherwise.
// With an invalid parent the span is emitted uncorrelated, preserving the
// untraced JSONL behaviour. Only queue-wait, which precedes the attempt's
// TaskContext, is emitted here; an attempt's phases use TaskContext.Begin.
func (run *jobRun) emitSpanUnder(parent obs.SpanContext, name, node, taskID string, start, end time.Time, attrs ...string) {
	tr := run.engine.opts.Tracer
	if !tr.Enabled() {
		return
	}
	s := obs.Span{Job: run.jobID, Name: name, Node: node, TaskID: taskID, Start: start, End: end, Attrs: obs.Attrs(attrs...)}
	parent.NewChild().Fill(&s, parent.Span)
	tr.Emit(s)
}

// emitTaskSpan emits the attempt's "task" span, covering scheduler
// readiness (queue wait) through the attempt's end. It is emitted for every
// attempt — winners, retries and speculative losers alike — so every
// sub-span's parent resolves in the assembled profile.
func (run *jobRun) emitTaskSpan(tsc obs.SpanContext, parent, taskID, node string, start, end time.Time, attempt int, won bool, err error) {
	tr := run.engine.opts.Tracer
	if !tr.Enabled() || !tsc.Valid() {
		return
	}
	status := "ok"
	if err != nil {
		status = "error"
	}
	s := obs.Span{
		Job: run.jobID, Name: obs.PhaseTask, Node: node, TaskID: taskID,
		Start: start, End: end,
		Attrs: obs.Attrs(
			"attempt", strconv.Itoa(attempt),
			"won", strconv.FormatBool(won),
			"status", status),
	}
	tsc.Fill(&s, parent)
	tr.Emit(s)
}

// observeDur records d into the named histogram when a registry is attached.
func (run *jobRun) observeDur(name string, d time.Duration) {
	if m := run.engine.opts.Metrics; m != nil {
		m.Histogram(name).ObserveDuration(d)
	}
}

// ---------------------------------------------------------------- phases

// errSuperseded marks an attempt abandoned because a speculative sibling
// finished first; it is not a failure.
var errSuperseded = fmt.Errorf("mr: attempt superseded by a faster sibling")

// phaseSpec describes one phase of a job to runPhase.
type phaseSpec struct {
	name      string     // "map" or "reduce"
	capNode   int        // concurrent attempts per node
	locations [][]string // per task, the hosts holding its input
	// speculative and eagerRequeue switch on the scheduler's backup attempts
	// and its requeue of a dead node's in-flight tasks.
	speculative, eagerRequeue bool
	// exec runs one attempt on a node and returns its output (map attempts
	// only) and measured sub-phases. superseded turns true once the
	// attempt's result can no longer matter.
	exec func(a assignment, node *cluster.Node, qwait time.Duration, tsc obs.SpanContext, superseded func() bool) (*mapOutput, map[string]time.Duration, error)
}

// attemptDone is what an attempt's goroutine hands back to its phase.
type attemptDone struct {
	a          assignment
	taskID     string
	node       *cluster.Node
	tsc        obs.SpanContext
	start, end time.Time
	out        *mapOutput
	phases     map[string]time.Duration
	err        error
}

// phaseEvent is one thing that happened to a running phase: an attempt
// finished, a node died, or (neither set) the job's context ended.
type phaseEvent struct {
	done *attemptDone
	dead *cluster.Node
}

// runPhase runs the tasks of one phase to the end. The calling goroutine
// owns the scheduler: it applies each event to it, starts a goroutine for
// every attempt the event's dispatch assigns (a goroutine lives exactly as
// long as its attempt) and publishes what finished attempts produced.
// Nothing here polls or sleeps: between events the phase waits on the event
// channel, and it is over when no attempt is running, because the dispatch
// that followed the last completion assigned nothing.
func (run *jobRun) runPhase(p phaseSpec) error {
	nodes := run.engine.cluster.Alive()
	names := make([]string, len(nodes))
	for i, n := range nodes {
		names[i] = n.ID()
	}
	s := newTaskSched(p.name[:1], names, p.capNode, run.engine.opts.MaxTaskAttempts, p.locations)
	s.alive = func(n int) bool { return nodes[n].IsAlive() }
	s.speculative, s.eagerRequeue = p.speculative, p.eagerRequeue

	events := make(chan phaseEvent)
	quit := make(chan struct{})
	defer close(quit)
	// post delivers an event from outside the phase (a killer's goroutine,
	// the context's) unless the phase has ended meanwhile.
	post := func(ev phaseEvent) {
		select {
		case events <- ev:
		case <-quit:
		}
	}
	unwatch := run.engine.cluster.OnDeath(func(n *cluster.Node) { post(phaseEvent{dead: n}) })
	defer unwatch()
	stop := context.AfterFunc(run.ctx, func() { post(phaseEvent{}) })
	defer stop()

	queueWait, duration := "mr."+p.name+".queue_wait_ns", "mr."+p.name+".duration_ns"
	launch := func(as []assignment) {
		for _, a := range as {
			go func() {
				d := &attemptDone{a: a, taskID: s.taskID(a.task), node: nodes[a.node],
					tsc: run.jctx.Trace.NewChild(), start: time.Now()}
				qwait := d.start.Sub(a.ready)
				run.emitSpanUnder(d.tsc, obs.PhaseQueueWait, d.node.ID(), d.taskID, a.ready, d.start)
				run.observeDur("mr.queue_wait_ns", qwait)
				run.observeDur(queueWait, qwait)
				superseded := func() bool { return s.isDone(a.task) || run.ctx.Err() != nil }
				d.out, d.phases, d.err = p.exec(a, d.node, qwait, d.tsc, superseded)
				d.end = time.Now()
				// The phase outlives every attempt it started, so this send
				// is always received.
				events <- phaseEvent{done: d}
			}()
		}
	}

	if err := run.ctx.Err(); err != nil {
		s.cancel(run.cancelErr(err))
	}
	launch(s.start(time.Now()))
	for s.totalRun > 0 {
		switch ev := <-events; {
		case ev.done != nil:
			d := ev.done
			won, next := s.complete(d.a, d.err, time.Now())
			launch(next)
			run.finishAttempt(d, won, duration)
		case ev.dead != nil:
			k, next := s.nodeDied(ev.dead.ID(), time.Now())
			launch(next)
			if k > 0 {
				run.counters.Add(CtrAttemptsRequeuedDeadNode, int64(k))
				if m := run.engine.opts.Metrics; m != nil {
					m.Counter("mr.attempts_requeued_dead_node").Add(int64(k))
				}
			}
		default:
			s.cancel(run.cancelErr(run.ctx.Err()))
		}
	}
	run.counters.Add(CtrSpeculativeMaps, s.specLaunched)
	return s.result(p.name)
}

// finishAttempt publishes a finished attempt: its task span always, and the
// output, task report and duration sample of the one attempt per task that
// won, so a speculative backup and the original finishing together cannot
// double-count.
func (run *jobRun) finishAttempt(d *attemptDone, won bool, durationMetric string) {
	run.emitTaskSpan(d.tsc, run.jctx.Trace.Span, d.taskID, d.node.ID(), d.a.ready, d.end, d.a.attempt, won, d.err)
	switch {
	case d.err == nil && won:
		if d.out != nil {
			run.mapOutputs[d.a.task] = d.out
		}
		dur := d.end.Sub(d.start)
		run.reports = append(run.reports, TaskReport{
			TaskID: d.taskID, Node: d.node.ID(), Attempts: d.a.attempt,
			Start: d.start, Duration: dur, Local: d.a.place == placeLocal, Phases: d.phases,
		})
		run.observeDur(durationMetric, dur)
	case d.err == nil:
		// Successful loser of a speculative race; discarded.
	case errors.Is(d.err, errSuperseded):
		// Abandoned backup; not a retryable failure.
	case run.ctx.Err() != nil:
		// Job canceled: the scheduler is aborted, nothing is retried.
	default:
		run.counters.Add(CtrTaskRetries, 1)
	}
}

func (run *jobRun) mapPhase() error {
	locations := make([][]string, len(run.splits))
	for t, sp := range run.splits {
		locations[t] = sp.Locations()
	}
	// Backup attempts and eager requeue are only safe when map output is
	// buffered and committed first-wins (jobs with reducers); map-only jobs
	// write straight to the OutputFormat, where a second attempt's partial
	// output would duplicate rows (Hadoop guards that case with an output
	// committer).
	firstWins := run.job.NumReduceTasks > 0
	return run.runPhase(phaseSpec{
		name:         "map",
		capNode:      run.capPerNode(),
		locations:    locations,
		speculative:  firstWins && run.job.Conf.Speculative,
		eagerRequeue: firstWins,
		exec: func(a assignment, node *cluster.Node, qwait time.Duration, tsc obs.SpanContext, superseded func() bool) (*mapOutput, map[string]time.Duration, error) {
			return run.executeMapAttempt(a.task, node, a.attempt, a.place, qwait, tsc, superseded)
		},
	})
}

// tally holds an attempt's per-record counters as plain integers: each is
// written by one goroutine, or under the lock of the collector that counts
// it, and endAttempt adds them to the job's Counters once. The job-wide
// lock and map assignment are paid per attempt, not per record.
type tally struct {
	mapInput, mapOutput, mapOutputBytes int64
	reduceGroups, reduceOutput          int64
}

// startAttempt is what every task attempt begins with: the cancellation and
// failure-injection checks, the modeled launch charge, a JVM from the node's
// pool and the attempt's TaskContext. fresh reports a newly started JVM.
// Once it has returned a context the caller defers endAttempt.
func (run *jobRun) startAttempt(taskID string, node *cluster.Node, attempt int, qwait time.Duration, tsc obs.SpanContext, superseded func() bool) (ctx *TaskContext, fresh bool, err error) {
	e := run.engine
	if cerr := run.ctx.Err(); cerr != nil {
		return nil, false, run.cancelErr(cerr)
	}
	if run.job.FailureInjector != nil {
		if ferr := run.job.FailureInjector(taskID, attempt); ferr != nil {
			return nil, false, ferr
		}
	}
	ctx = &TaskContext{
		JobContext: run.jctx,
		TaskID:     taskID,
		Attempt:    attempt,
		node:       node,
		job:        run.job,
		sc:         tsc,
		allowance:  run.taskMem,
		superseded: superseded,
		runCtx:     run.ctx,
	}
	ctx.ObservePhase(obs.PhaseQueueWait, qwait)
	launch := ctx.Begin(obs.PhaseLaunch)
	node.ChargeOverhead(e.opts.TaskLaunchOverhead)
	launch.End()

	ctx.jvm, fresh = run.pool(node.ID()).acquire(run.reuse)
	if fresh {
		run.counters.Add(CtrJVMsStarted, 1)
		jvmStart := ctx.Begin(obs.PhaseJVMStart)
		node.ChargeOverhead(e.opts.JVMStartup)
		jvmStart.End()
	} else {
		run.counters.Add(CtrJVMReuses, 1)
	}
	return ctx, fresh, nil
}

// endAttempt, deferred, ends an attempt on every path out of it (success,
// error, superseded, panic): a panic in the task's code becomes the
// attempt's error, the tallies are added to the job's counters (so a failed
// attempt's records are counted, as Hadoop counts them), reserved memory
// goes back to the node and the JVM to its pool.
func (run *jobRun) endAttempt(ctx *TaskContext, err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("task %s panicked: %v", ctx.TaskID, r)
	}
	add := func(name string, n int64) {
		if n != 0 { // a counter nothing counted stays absent from the job's
			run.counters.Add(name, n)
		}
	}
	add(CtrMapInputRecords, ctx.tally.mapInput)
	add(CtrMapOutputRecords, ctx.tally.mapOutput)
	add(CtrMapOutputBytes, ctx.tally.mapOutputBytes)
	add(CtrReduceInputGroups, ctx.tally.reduceGroups)
	add(CtrReduceOutput, ctx.tally.reduceOutput)
	ctx.releaseAll()
	run.pool(ctx.node.ID()).release(ctx.jvm, run.reuse)
}

// executeMapAttempt runs one attempt of one map task on a node and returns
// its sorted/combined output (nil parts for map-only jobs, whose output goes
// straight to the OutputFormat) plus the attempt's measured sub-phase
// durations.
func (run *jobRun) executeMapAttempt(task int, node *cluster.Node, attempt int, place placement, qwait time.Duration, tsc obs.SpanContext, superseded func() bool) (mo *mapOutput, phases map[string]time.Duration, err error) {
	local := place == placeLocal
	run.counters.Add(CtrMapTasks, 1)
	switch place {
	case placeLocal:
		run.counters.Add(CtrDataLocalMaps, 1)
	case placeNoHolder:
		run.counters.Add(CtrRemoteMaps, 1)
		run.counters.Add(CtrRemoteMapsNoHolder, 1)
	default:
		run.counters.Add(CtrRemoteMaps, 1)
		run.counters.Add(CtrRemoteMapsDelayed, 1)
	}
	ctx, fresh, err := run.startAttempt(fmt.Sprintf("m-%d", task), node, attempt, qwait, tsc, superseded)
	if err != nil {
		return nil, nil, err
	}
	defer run.endAttempt(ctx, &err)

	jvmAttr := "reused"
	if fresh {
		jvmAttr = "fresh"
	}
	mapping := ctx.Begin(obs.PhaseMap)
	mc, err := run.runMap(ctx, task)
	mapping.End("local", strconv.FormatBool(local), "jvm", jvmAttr)
	if err != nil {
		return nil, nil, err
	}
	if mc == nil {
		return &mapOutput{node: node.ID()}, ctx.Phases(), nil
	}

	combining := ctx.Begin(obs.PhaseCombine)
	out, err := mc.finish(ctx, run.job)
	if err != nil {
		return nil, nil, err
	}
	combining.End()
	// Spilling the sorted output to the node's local disk (raw device, not
	// HDFS).
	var spill int64
	for _, b := range out.bytes {
		spill += b
	}
	spilling := ctx.Begin(obs.PhaseSpill)
	if err := node.ChargeDiskWrite(spill, false); err != nil {
		return nil, nil, err
	}
	spilling.End("bytes", strconv.FormatInt(spill, 10))
	return out, ctx.Phases(), nil
}

// runMap is the map phase of an attempt: the split's reader, the runner
// over it and, for a map-only job, the OutputFormat writer it collects
// into. It returns the buffered output's collector, nil for a map-only job.
func (run *jobRun) runMap(ctx *TaskContext, task int) (*mapCollector, error) {
	reader, err := run.job.Input.Open(run.splits[task], ctx)
	if err != nil {
		return nil, err
	}
	defer reader.Close()

	var collector Collector
	var mc *mapCollector
	var writer RecordWriter
	if run.job.NumReduceTasks > 0 {
		mc = newMapCollector(run.job.NumReduceTasks, run.job.Partitioner, &ctx.tally)
		collector = mc
	} else {
		writer, err = run.job.Output.OpenWriter(ctx, task)
		if err != nil {
			return nil, err
		}
		collector = &writerCollector{w: writer, n: &ctx.tally.mapOutput}
	}

	var runner MapRunner
	if run.job.NewMapRunner != nil {
		runner = run.job.NewMapRunner()
	} else {
		runner = &defaultMapRunner{newMapper: run.job.NewMapper}
	}
	if err := runner.Run(ctx, reader, collector); err != nil {
		if writer != nil {
			writer.Close()
		}
		return nil, err
	}
	if writer != nil {
		return nil, writer.Close()
	}
	return mc, nil
}

// defaultMapRunner is the stock record-at-a-time loop (§3).
type defaultMapRunner struct {
	newMapper func() Mapper
}

func (r *defaultMapRunner) Run(ctx *TaskContext, reader RecordReader, out Collector) error {
	m := r.newMapper()
	if err := m.Setup(ctx); err != nil {
		return err
	}
	for {
		k, v, ok, err := reader.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := ctx.InputRecord(); err != nil {
			return err
		}
		if err := m.Map(k, v, out); err != nil {
			return err
		}
	}
	return m.Cleanup(out)
}

// writerCollector hands a task's output pairs to its OutputFormat writer
// (map-only jobs and reducers), counting them into the attempt's tally; it
// is synchronized so multi-threaded runners can share it.
type writerCollector struct {
	mu sync.Mutex
	w  RecordWriter
	n  *int64
}

func (c *writerCollector) Collect(k, v records.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	*c.n++
	return c.w.Write(k, v)
}

// CollectEncoded implements EncodedCollector.
func (c *writerCollector) CollectEncoded(value []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	*c.n++
	return c.w.WriteEncoded(value)
}
