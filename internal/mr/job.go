// Package mr implements a Hadoop-like MapReduce engine over the simulated
// cluster and HDFS. It reproduces the extension points the paper builds
// Clydesdale out of (§3): InputFormats producing splits and record readers,
// OutputFormats, pluggable MapRunners (the hook for Clydesdale's
// multi-threaded map task), JVM reuse (the hook for sharing dimension hash
// tables across consecutive tasks), a pluggable scheduler with a
// capacity-style memory constraint (the hook for one-task-per-node), the
// distributed cache (the hook Hive's mapjoin uses to broadcast hash tables),
// counters, and task re-execution on failure.
//
// Tasks execute real work in-process: slots are goroutines, map outputs are
// really sorted, combined, serialized, shuffled and merged. Modeled time is
// charged to cluster nodes for I/O and per-task overheads.
package mr

import (
	"time"

	"clydesdale/internal/records"
)

// Conf holds a job's settings. The zero value is Hadoop's default job:
// default task memory, no JVM reuse, one map thread, no speculation.
type Conf struct {
	// TaskMemory is the per-task memory requirement in bytes (<= 0: the
	// node's memory over its map slots). The capacity scheduler limits
	// concurrent tasks per node to floor(node memory / task memory);
	// requesting the whole node therefore yields exactly one concurrent task
	// per node (§5.2).
	TaskMemory int64
	// JVMReuse runs consecutive tasks of the job on a node in a recycled
	// JVM that keeps its static state (§3, §5.2).
	JVMReuse bool
	// MapThreads is the thread count a multi-threaded MapRunner should use
	// (the slots the task occupies, §5.2 requirement 3); <= 1 means one. An
	// input format that packs multi-splits (MultiCIF, §5.1) packs only when
	// it is above 1.
	MapThreads int
	// Speculative enables speculative execution of map tasks: when no
	// pending tasks remain, idle slots launch backup attempts of still-
	// running tasks; the first attempt to finish wins and the loser is
	// cancelled (Hadoop's straggler mitigation).
	Speculative bool
}

// InputSplit is a schedulable unit of input. Locations lists the nodes
// holding the split's data locally, used for locality-aware scheduling.
type InputSplit interface {
	Locations() []string
	Length() int64
}

// RecordReader iterates the key/value pairs of one split.
type RecordReader interface {
	// Next returns the next pair; ok is false at end of input. A reader may
	// decode every pair into the same value slices, so a pair is valid only
	// until the following call to Next: a consumer that keeps a record
	// copies it (Record.Clone) or the values it needs. Collecting or
	// writing a record keeps nothing of it.
	Next() (key, value records.Record, ok bool, err error)
	Close() error
}

// MultiReader is implemented by readers over multi-splits (MultiCIF): it
// exposes one independent reader per packed constituent split so that the
// threads of a multi-threaded map task do not serialize on a single
// synchronized Next (§5.1).
type MultiReader interface {
	Readers() ([]RecordReader, error)
}

// InputFormat produces splits and readers, mirroring Hadoop's InputFormat.
type InputFormat interface {
	Splits(ctx *JobContext) ([]InputSplit, error)
	Open(split InputSplit, ctx *TaskContext) (RecordReader, error)
}

// RecordWriter consumes a task's output pairs.
type RecordWriter interface {
	Write(key, value records.Record) error
	// WriteEncoded writes one pair with an empty key whose value is already
	// encoded as records.AppendRecord encodes it. The writer keeps nothing
	// of value past the call.
	WriteEncoded(value []byte) error
	Close() error
}

// OutputFormat opens per-task output writers.
type OutputFormat interface {
	OpenWriter(ctx *TaskContext, taskIndex int) (RecordWriter, error)
}

// Collector receives pairs emitted by mappers, combiners and reducers. It is
// safe for concurrent use by the threads of a multi-threaded map task.
type Collector interface {
	Collect(key, value records.Record) error
}

// EncodedCollector is the collector a reduce task hands its reducer (and a
// map-only task its mapper): besides records, it takes a keyless output
// value already in records.AppendRecord's encoding and passes it to the
// OutputFormat's RecordWriter.WriteEncoded, so a reducer that only moves
// bytes does not decode them to have them encoded again.
type EncodedCollector interface {
	Collector
	CollectEncoded(value []byte) error
}

// EncodedValueCollector is the collector a map task with reduce tasks hands
// its runner: besides records, it takes a pair whose value is already in
// records.AppendRecord's encoding, given as parts laid end to end, so a
// runner that moves fields as its reader found them does not decode them to
// have them encoded again. The key is a record, partitioned as Collect's
// is. The parts are not checked, and nothing of them is kept past the call.
type EncodedValueCollector interface {
	Collector
	CollectEncodedValue(key records.Record, value ...[]byte) error
}

// Mapper is the user map function plus per-task lifecycle hooks.
type Mapper interface {
	Setup(ctx *TaskContext) error
	Map(key, value records.Record, out Collector) error
	Cleanup(out Collector) error
}

// Values iterates the values of one reduce group, in map-task order and,
// within a map task, in emit order. Each value is decoded into the slice the
// one before it occupied: a record is valid until the next call to Next,
// and a reducer that keeps one copies it. NextEncoded takes the next value
// without decoding it: the bytes records.AppendRecord wrote on the map side,
// unchecked against the job's ValueSchema. They alias the shuffle's buffer
// and are valid until the next call to either method. The two may be mixed
// within a group; each value is handed out once.
type Values interface {
	Next() (records.Record, bool)
	NextEncoded() ([]byte, bool)
}

// Reducer is the user reduce function plus lifecycle hooks. Combiners use
// the same interface. The key is valid until Reduce returns, under the same
// rule as the values.
type Reducer interface {
	Setup(ctx *TaskContext) error
	Reduce(key records.Record, values Values, out Collector) error
	Cleanup(out Collector) error
}

// MapRunner drives one map task: it owns the loop that pulls pairs from the
// reader and applies the map function (a record-at-a-time loop calls
// TaskContext.InputRecord for each record it reads). Supplying a custom
// MapRunner is how Clydesdale runs multi-threaded map tasks without
// modifying the framework.
type MapRunner interface {
	Run(ctx *TaskContext, reader RecordReader, out Collector) error
}

// Partitioner routes a map-output key to a reduce partition.
type Partitioner func(key records.Record, numPartitions int) int

// HashPartitioner routes by key hash, the default.
func HashPartitioner(key records.Record, numPartitions int) int {
	return int(key.Hash() % uint64(numPartitions))
}

// Job describes one MapReduce job. Factories (NewMapper etc.) are invoked
// once per task so tasks get private instances; nil NewReducer with
// NumReduceTasks == 0 yields a map-only job whose map output goes straight
// to the OutputFormat, as Hive's mapjoin stages do.
type Job struct {
	Name string
	Conf Conf

	Input  InputFormat
	Output OutputFormat

	NewMapper  func() Mapper
	NewReducer func() Reducer
	// NewCombiner, when non-nil, is run over each sorted map-output
	// partition before it is stored for shuffling.
	NewCombiner func() Reducer
	// NewMapRunner, when non-nil, replaces the default record-at-a-time
	// runner.
	NewMapRunner func() MapRunner

	Partitioner    Partitioner
	NumReduceTasks int

	// KeySchema and ValueSchema, when set, are attached to map-output pairs
	// decoded during shuffle/reduce so reducers can access fields by name.
	KeySchema   *records.Schema
	ValueSchema *records.Schema

	// CacheFiles lists HDFS paths broadcast to every node through the
	// distributed cache before tasks run (copied once per node per job).
	CacheFiles []string

	// FailureInjector, when non-nil, is consulted before each task attempt;
	// a non-nil error fails that attempt. Used by fault-tolerance tests.
	FailureInjector func(taskID string, attempt int) error
}

// TaskReport summarizes one executed task attempt chain.
type TaskReport struct {
	TaskID   string
	Node     string
	Attempts int
	Start    time.Time // when the winning attempt started
	Duration time.Duration
	Local    bool // map tasks: whether the final attempt read a local split
	// Phases holds the winning attempt's measured sub-phase durations,
	// keyed by the obs.Phase* names (queue-wait, jvm-start, read, map,
	// combine, spill, shuffle, sort, reduce, hash-build, probe, ...).
	// Multi-threaded phases sum across threads.
	Phases map[string]time.Duration
}

// JobResult is returned by Engine.Submit.
type JobResult struct {
	JobID    string
	Counters *Counters
	Tasks    []TaskReport
	Duration time.Duration
}
