// Package obs is the observability layer: span-based tracing, a metrics
// registry, and renderers (a per-node task timeline, JSONL export). It is
// the job-history service the simulation lacked — counters alone say *what*
// a job did, spans say *where the time went*: queue waits, JVM starts vs
// reuses, local vs remote input reads, hash builds vs probes, shuffle
// stalls, stragglers.
//
// The package sits below every other layer (it imports only the standard
// library) so cluster, hdfs, mr, core and bench can all emit into one
// tracer. The hot-path contract: with no sinks attached, Tracer.Enabled is
// a single atomic load and Emit returns immediately, so instrumented code
// costs ~nothing when tracing is off.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Canonical span/phase names. Layers emitting a new instrumented phase
// should add its name here so renderers and reports agree on the taxonomy
// (see DESIGN.md "Observability").
const (
	// PhaseQueueWait is the time a task spent pending before a slot
	// accepted it (scheduler queue + delay-scheduling passes).
	PhaseQueueWait = "queue-wait"
	// PhaseLaunch is the modeled task-launch overhead.
	PhaseLaunch = "launch"
	// PhaseJVMStart is a fresh JVM's startup; absent when a JVM was reused.
	PhaseJVMStart = "jvm-start"
	// PhaseRead is input read time (HDFS fetch of the split's data). It
	// nests under the probe or map that reads, and its hdfs-read spans nest
	// under it.
	PhaseRead = "read"
	// PhaseMap is the map runner's execution: the input's open, the runner
	// and, for a map-only job, the output's writer. hash-build, probe and
	// read are its descendants.
	PhaseMap = "map"
	// PhaseCombine is the map-side sort+combine of buffered output.
	PhaseCombine = "combine"
	// PhaseSpill is the local-disk write of sorted map output.
	PhaseSpill = "spill"
	// PhaseShuffle is a reduce task's fetch of map-output partitions.
	PhaseShuffle = "shuffle"
	// PhaseSort is the reduce-side merge of fetched runs.
	PhaseSort = "sort"
	// PhaseReduce is the reduce function over merged groups.
	PhaseReduce = "reduce"
	// PhaseHashBuild is Clydesdale's dimension hash-table build on a node.
	PhaseHashBuild = "hash-build"
	// PhaseProbe is Clydesdale's fact-scan probe phase.
	PhaseProbe = "probe"
	// PhaseHDFSRead is one filesystem read (no task attribution; carries
	// path and local/remote byte attrs).
	PhaseHDFSRead = "hdfs-read"
	// PhasePrune is the driver-side zone-map consultation that drops
	// partitions before scheduling (no task attribution; carries
	// partitions kept/pruned and bytes skipped).
	PhasePrune = "prune"
	// PhaseDimCache is the driver-side dimension-cache dissemination check:
	// copying dimension tables to nodes that lack a local copy (§4; a no-op
	// after the first query, but the copy cost belongs to whoever pays it).
	PhaseDimCache = "dim-cache"
	// PhaseAdmissionWait is the time a query spent queued in the serving
	// layer's admission controller before its memory reservation was
	// granted (no task attribution; carries the query name).
	PhaseAdmissionWait = "admission-wait"
	// PhaseQuery is a trace's root span: one query end-to-end as its caller
	// saw it (admission wait + planning + jobs + driver-side sort).
	PhaseQuery = "query"
	// PhaseJob spans one MapReduce job submission; task spans nest under it.
	PhaseJob = "job"
	// PhaseTask spans one task attempt from scheduler readiness to the
	// attempt's end; the attempt's top-level phases (queue-wait, launch,
	// jvm-start, map, combine, spill, shuffle, sort, reduce) are its
	// children, and finer ones nest under those. Carries attempt number and
	// whether the attempt won the task.
	PhaseTask = "task"
)

// Span is one completed timed event. TaskID is empty for events not
// attributable to a task (e.g. raw HDFS reads). Attrs carry free-form
// detail (bytes, local/remote, paths) and may be nil.
//
// Trace, SpanID and Parent correlate spans into per-query trees: all spans
// of one query share a Trace, every span's Parent names another span of the
// same trace (empty for the root), and profiles are assembled by resolving
// those edges (BuildProfile). All three are empty on spans emitted outside
// a traced request.
type Span struct {
	Trace  string
	SpanID string
	Parent string
	Job    string
	Name   string
	Node   string
	TaskID string
	Start  time.Time
	End    time.Time
	Attrs  map[string]string
}

// Duration returns the span's length.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Sink receives completed spans. Implementations must be safe for
// concurrent Emit calls: task slots emit from many goroutines.
type Sink interface {
	Emit(Span)
}

// Tracer fans completed spans out to its sinks. A nil *Tracer is valid and
// permanently disabled, so instrumented code never needs nil checks beyond
// calling Enabled or Emit.
type Tracer struct {
	enabled atomic.Bool
	mu      sync.RWMutex
	sinks   []Sink
}

// NewTracer creates a tracer over the given sinks. With no sinks the
// tracer starts disabled; AddSink enables it.
func NewTracer(sinks ...Sink) *Tracer {
	t := &Tracer{sinks: sinks}
	t.enabled.Store(len(sinks) > 0)
	return t
}

// AddSink attaches a sink and enables the tracer.
func (t *Tracer) AddSink(s Sink) {
	t.mu.Lock()
	t.sinks = append(t.sinks, s)
	t.mu.Unlock()
	t.enabled.Store(true)
}

// Enabled reports whether spans are being collected. It is the fast-path
// guard: one atomic load, nil-safe.
func (t *Tracer) Enabled() bool {
	return t != nil && t.enabled.Load()
}

// Emit delivers a completed span to every sink. No-op when disabled.
func (t *Tracer) Emit(s Span) {
	if !t.Enabled() {
		return
	}
	t.mu.RLock()
	sinks := t.sinks
	t.mu.RUnlock()
	for _, sink := range sinks {
		sink.Emit(s)
	}
}

// Attrs builds an attribute map from alternating key/value pairs; a
// trailing odd key is ignored. Returns nil for no pairs, so callers can
// pass it unconditionally without allocating on the common no-attr path.
func Attrs(kv ...string) map[string]string {
	if len(kv) < 2 {
		return nil
	}
	m := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}
