package mr

import "sync"

// Standard counter names, mirroring Hadoop's task counters.
const (
	CtrMapInputRecords    = "MAP_INPUT_RECORDS"
	CtrMapOutputRecords   = "MAP_OUTPUT_RECORDS"
	CtrMapOutputBytes     = "MAP_OUTPUT_BYTES"
	CtrCombineInput       = "COMBINE_INPUT_RECORDS"
	CtrCombineOutput      = "COMBINE_OUTPUT_RECORDS"
	CtrReduceInputGroups  = "REDUCE_INPUT_GROUPS"
	CtrReduceInputRecords = "REDUCE_INPUT_RECORDS"
	CtrReduceOutput       = "REDUCE_OUTPUT_RECORDS"
	CtrShuffleBytes       = "SHUFFLE_BYTES"
	CtrShuffleRemoteBytes = "SHUFFLE_REMOTE_BYTES"
	CtrMapTasks           = "MAP_TASKS_LAUNCHED"
	CtrReduceTasks        = "REDUCE_TASKS_LAUNCHED"
	CtrDataLocalMaps      = "DATA_LOCAL_MAPS"
	CtrRemoteMaps         = "REMOTE_MAPS"
	// REMOTE_MAPS by cause, summing to it: the attempt ran off its input
	// because no live node held it (no locations, or every holder dead), or
	// although one did (every holder stayed at capacity through the locality
	// delay; also a retry kept off the holder it failed on, a backup beside
	// the holder's attempt, a map re-executed at the reducer that lost it).
	CtrRemoteMapsNoHolder = "REMOTE_MAPS_NO_HOLDER"
	CtrRemoteMapsDelayed  = "REMOTE_MAPS_DELAYED"
	CtrTaskRetries        = "TASK_RETRIES"
	CtrJVMsStarted        = "JVMS_STARTED"
	CtrJVMReuses          = "JVM_REUSES"
	CtrCacheCopies        = "DISTRIBUTED_CACHE_COPIES"
	CtrMapsReExecuted     = "MAPS_REEXECUTED_FOR_SHUFFLE"
	CtrSpeculativeMaps    = "SPECULATIVE_MAP_ATTEMPTS"
	// CtrAttemptsRequeuedDeadNode counts in-flight attempts that were
	// requeued to other nodes because their node died mid-attempt.
	CtrAttemptsRequeuedDeadNode = "ATTEMPTS_REQUEUED_DEAD_NODE"
)

// Counters is a concurrency-safe named counter set shared by all tasks of a
// job; query engines add their own counters (hash builds, probe hits, ...).
type Counters struct {
	mu sync.Mutex
	m  map[string]int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{m: make(map[string]int64)} }

// Add increments the named counter by delta.
func (c *Counters) Add(name string, delta int64) {
	c.mu.Lock()
	c.m[name] += delta
	c.mu.Unlock()
}

// Get returns the named counter's value.
func (c *Counters) Get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// Snapshot returns a copy of all counters.
func (c *Counters) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// Merge adds every counter from o into c.
func (c *Counters) Merge(o *Counters) {
	for k, v := range o.Snapshot() {
		c.Add(k, v)
	}
}
