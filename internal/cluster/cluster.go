// Package cluster models the commodity cluster the paper runs on: worker
// nodes with map/reduce slots, a memory budget, a set of disks with finite
// bandwidth, and a network fabric. The model executes real work in-process
// (slots are goroutines) while charging modeled time for I/O and per-task
// overheads; modeled time is accounted per node and optionally converted to
// real (scaled) sleeps so that relative timings in benchmarks reflect the
// modeled costs.
//
// Two profiles mirror the paper's clusters: A (8 workers, 6 map slots,
// 16 GB, 8 disks) and B (40 workers, 6 map slots, 32 GB, 5 disks).
package cluster

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config describes a cluster.
type Config struct {
	// Name labels the cluster in reports (e.g. "A", "B").
	Name string
	// Workers is the number of worker nodes (excludes master roles, which
	// are implicit).
	Workers int
	// MapSlots and ReduceSlots are per-node task slots.
	MapSlots    int
	ReduceSlots int
	// MemoryPerNode is the per-node memory budget in bytes, enforced for
	// query-processing data structures (hash tables); exceeding it fails the
	// allocating task with ErrOutOfMemory.
	MemoryPerNode int64
	// DisksPerNode is the number of independent spindles; concurrent streams
	// beyond this count queue.
	DisksPerNode int
	// DiskBandwidth is the modeled per-disk bandwidth in bytes/second.
	DiskBandwidth float64
	// NetBandwidth is the modeled per-node network bandwidth in bytes/second.
	NetBandwidth float64
	// HDFSEfficiency scales DiskBandwidth for reads that go through the
	// distributed filesystem, modeling the checksumming/deserialization
	// overheads §6.6 measures (HDFS delivers only a fraction of raw disk
	// bandwidth). 1.0 means HDFS is as fast as the raw disk.
	HDFSEfficiency float64
	// TimeScale converts modeled durations to real sleeps: a modeled second
	// costs TimeScale real seconds. Zero disables sleeping (unit tests);
	// benchmarks use a small positive value so that modeled I/O shows up in
	// wall-clock measurements.
	TimeScale float64
}

// ClusterA returns the paper's cluster A profile: 8 worker nodes, two
// quad-core CPUs (6 map slots + 1 reduce slot configured), 16 GB memory,
// eight 250 GB disks at ~70 MB/s, 1 Gbit ethernet.
func ClusterA() Config {
	return Config{
		Name:           "A",
		Workers:        8,
		MapSlots:       6,
		ReduceSlots:    1,
		MemoryPerNode:  16 << 30,
		DisksPerNode:   8,
		DiskBandwidth:  70 << 20,
		NetBandwidth:   125 << 20, // 1 Gbit
		HDFSEfficiency: 0.35,      // §6.6: tasks read ~67 MB/s of >560 MB/s raw
	}
}

// ClusterB returns the paper's cluster B profile: 40 worker nodes, 32 GB
// memory, five 500 GB disks.
func ClusterB() Config {
	return Config{
		Name:           "B",
		Workers:        40,
		MapSlots:       6,
		ReduceSlots:    1,
		MemoryPerNode:  32 << 30,
		DisksPerNode:   5,
		DiskBandwidth:  70 << 20,
		NetBandwidth:   125 << 20,
		HDFSEfficiency: 0.35,
	}
}

// Testing returns a small fast profile for unit tests: no modeled-time
// sleeping, no throttling granularity concerns.
func Testing(workers int) Config {
	return Config{
		Name:           "test",
		Workers:        workers,
		MapSlots:       2,
		ReduceSlots:    1,
		MemoryPerNode:  1 << 30,
		DisksPerNode:   2,
		DiskBandwidth:  200 << 20,
		NetBandwidth:   125 << 20,
		HDFSEfficiency: 0.5,
	}
}

// Cluster is a set of simulated nodes.
type Cluster struct {
	cfg   Config
	live  liveRates
	nodes []*Node

	watchMu   sync.Mutex
	watchNext int
	watchers  map[int]func(*Node)
}

// liveRates holds the currently effective bandwidths, adjustable at
// runtime. The benchmark harness loads data at full speed and then scales
// I/O down so that modeled I/O carries paper-like weight relative to
// per-task overheads at the simulation's small data sizes.
type liveRates struct {
	diskBW atomicFloat
	netBW  atomicFloat
}

// atomicFloat is a float64 with atomic load/store semantics.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }

// New builds a cluster from the config. Node IDs are "node-0" .. "node-N-1".
func New(cfg Config) *Cluster {
	if cfg.Workers <= 0 {
		panic("cluster: Workers must be positive")
	}
	if cfg.MapSlots <= 0 {
		cfg.MapSlots = 1
	}
	if cfg.ReduceSlots <= 0 {
		cfg.ReduceSlots = 1
	}
	if cfg.DisksPerNode <= 0 {
		cfg.DisksPerNode = 1
	}
	if cfg.HDFSEfficiency <= 0 || cfg.HDFSEfficiency > 1 {
		cfg.HDFSEfficiency = 1
	}
	c := &Cluster{cfg: cfg}
	c.live.diskBW.Store(cfg.DiskBandwidth)
	c.live.netBW.Store(cfg.NetBandwidth)
	for i := 0; i < cfg.Workers; i++ {
		c.nodes = append(c.nodes, newNode(fmt.Sprintf("node-%d", i), c))
	}
	return c
}

// ScaleIO divides the effective disk and network bandwidths by factor
// (relative to the configured nominal values). factor <= 0 restores the
// nominal bandwidths.
func (c *Cluster) ScaleIO(factor float64) {
	if factor <= 0 {
		factor = 1
	}
	c.live.diskBW.Store(c.cfg.DiskBandwidth / factor)
	c.live.netBW.Store(c.cfg.NetBandwidth / factor)
}

// Config returns the cluster's configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Nodes returns all nodes (alive or not).
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Node returns the node with the given ID, or nil.
func (c *Cluster) Node(id string) *Node {
	for _, n := range c.nodes {
		if n.ID() == id {
			return n
		}
	}
	return nil
}

// OnDeath registers fn to be called whenever a node transitions from alive
// to dead via Kill. The callback runs on the killer's goroutine with no
// cluster or node locks held, so it may freely call back into the cluster
// (e.g. to trigger re-replication or requeue scheduled work). The returned
// cancel func unregisters the watcher; calling it more than once is safe.
func (c *Cluster) OnDeath(fn func(*Node)) (cancel func()) {
	c.watchMu.Lock()
	defer c.watchMu.Unlock()
	if c.watchers == nil {
		c.watchers = make(map[int]func(*Node))
	}
	id := c.watchNext
	c.watchNext++
	c.watchers[id] = fn
	return func() {
		c.watchMu.Lock()
		defer c.watchMu.Unlock()
		delete(c.watchers, id)
	}
}

// notifyDeath invokes all registered death watchers for n.
func (c *Cluster) notifyDeath(n *Node) {
	c.watchMu.Lock()
	fns := make([]func(*Node), 0, len(c.watchers))
	for _, fn := range c.watchers {
		fns = append(fns, fn)
	}
	c.watchMu.Unlock()
	for _, fn := range fns {
		fn(n)
	}
}

// Alive returns the nodes currently alive.
func (c *Cluster) Alive() []*Node {
	var out []*Node
	for _, n := range c.nodes {
		if n.IsAlive() {
			out = append(out, n)
		}
	}
	return out
}

// Node is one simulated worker: local storage, a memory budget, disks, and
// a network interface.
type Node struct {
	id      string
	cluster *Cluster
	cfg     *Config

	mu       sync.Mutex
	alive    bool
	memUsed  int64
	local    map[string][]byte // node-local file store (dim cache, distributed cache)
	filling  map[string]*localFill
	diskSem  chan struct{} // limits concurrent disk streams to DisksPerNode
	diskSlow atomicFloat   // disk slowdown factor; >= 1, 1 = nominal
	modelled accounting
}

type accounting struct {
	diskReadBytes  atomic.Int64
	diskWriteBytes atomic.Int64
	netBytes       atomic.Int64
	modelNanos     atomic.Int64 // total modeled time charged on this node
}

func newNode(id string, c *Cluster) *Node {
	n := &Node{
		id:      id,
		cluster: c,
		cfg:     &c.cfg,
		alive:   true,
		local:   make(map[string][]byte),
		diskSem: make(chan struct{}, c.cfg.DisksPerNode),
	}
	n.diskSlow.Store(1)
	return n
}

// ID returns the node's identifier.
func (n *Node) ID() string { return n.id }

// IsAlive reports whether the node is up.
func (n *Node) IsAlive() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alive
}

// Kill marks the node dead and clears its local state (memory, local files).
// Dead nodes reject all charges and local-store operations. Killing an
// already-dead node is a no-op. Death watchers registered via
// Cluster.OnDeath run after the node's lock is released.
func (n *Node) Kill() {
	n.mu.Lock()
	if !n.alive {
		n.mu.Unlock()
		return
	}
	n.alive = false
	n.memUsed = 0
	n.local = make(map[string][]byte)
	n.mu.Unlock()
	n.cluster.notifyDeath(n)
}

// SetDiskSlowdown sets the node's disk slowdown factor: modeled disk
// charges take factor times as long as nominal. factor <= 1 restores full
// speed. Used by fault injection to model stragglers (§ delay scheduling /
// speculative execution only matter when some node is slow).
func (n *Node) SetDiskSlowdown(factor float64) {
	if factor < 1 {
		factor = 1
	}
	n.diskSlow.Store(factor)
}

// Revive brings a dead node back up with empty local state.
func (n *Node) Revive() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.alive = true
}

// ErrOutOfMemory is returned when a memory reservation exceeds the node's
// budget. It models the OOM failures Hive's mapjoin hits on cluster A.
var ErrOutOfMemory = fmt.Errorf("cluster: task exceeded node memory budget")

// ErrNodeDown is returned for operations against a dead node.
var ErrNodeDown = fmt.Errorf("cluster: node is down")

// ReserveMemory reserves b bytes of the node's budget, returning
// ErrOutOfMemory if it would be exceeded.
func (n *Node) ReserveMemory(b int64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return ErrNodeDown
	}
	if n.memUsed+b > n.cfg.MemoryPerNode {
		return fmt.Errorf("%w: want %d, used %d of %d", ErrOutOfMemory, b, n.memUsed, n.cfg.MemoryPerNode)
	}
	n.memUsed += b
	return nil
}

// ReleaseMemory returns b bytes to the budget.
func (n *Node) ReleaseMemory(b int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.memUsed -= b
	if n.memUsed < 0 {
		n.memUsed = 0
	}
}

// MemoryUsed reports the bytes currently reserved.
func (n *Node) MemoryUsed() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.memUsed
}

// PutLocal stores a node-local file (dimension cache, distributed cache).
func (n *Node) PutLocal(path string, data []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return ErrNodeDown
	}
	n.local[path] = data
	return nil
}

// GetLocal fetches a node-local file.
func (n *Node) GetLocal(path string) ([]byte, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return nil, false
	}
	data, ok := n.local[path]
	return data, ok
}

// HasLocal reports whether the node-local file exists.
func (n *Node) HasLocal(path string) bool {
	_, ok := n.GetLocal(path)
	return ok
}

// DropLocal removes a node-local file.
func (n *Node) DropLocal(path string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.local, path)
}

// LocalPaths lists the node-local files whose path starts with prefix.
func (n *Node) LocalPaths(prefix string) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []string
	for p := range n.local {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	return out
}

// localFill is one FillLocal in progress. done closes when it ends; err is
// written before that.
type localFill struct {
	done chan struct{}
	err  error
}

// FillLocal stores fill's result as the node-local file at path unless the
// file already exists, reporting whether this call stored it. Concurrent
// calls for one path share a single run of fill: the others wait for it and
// return its error. fill runs without the node's lock held. A path names
// immutable content (one version of a table), so a file dropped while its
// fill is in flight is simply stored again.
func (n *Node) FillLocal(path string, fill func() ([]byte, error)) (bool, error) {
	n.mu.Lock()
	if !n.alive {
		n.mu.Unlock()
		return false, ErrNodeDown
	}
	if _, ok := n.local[path]; ok {
		n.mu.Unlock()
		return false, nil
	}
	if f, ok := n.filling[path]; ok {
		n.mu.Unlock()
		<-f.done
		return false, f.err
	}
	f := &localFill{done: make(chan struct{})}
	if n.filling == nil {
		n.filling = make(map[string]*localFill)
	}
	n.filling[path] = f
	n.mu.Unlock()

	data, err := fill()

	n.mu.Lock()
	delete(n.filling, path)
	switch {
	case err != nil:
	case !n.alive:
		err = ErrNodeDown
	default:
		n.local[path] = data
	}
	f.err = err
	n.mu.Unlock()
	close(f.done)
	return err == nil, err
}

// charge accounts d of modeled time and sleeps TimeScale*d of real time.
func (n *Node) charge(d time.Duration) {
	if d <= 0 {
		return
	}
	n.modelled.modelNanos.Add(int64(d))
	if n.cfg.TimeScale > 0 {
		time.Sleep(time.Duration(float64(d) * n.cfg.TimeScale))
	}
}

// acquireDisk blocks until a disk stream is free on the node.
func (n *Node) acquireDisk() func() {
	n.diskSem <- struct{}{}
	return func() { <-n.diskSem }
}

// ChargeDiskRead models reading b bytes from one local disk. hdfs selects
// the HDFS-efficiency-degraded bandwidth (reads through the DFS client) vs
// raw device bandwidth.
func (n *Node) ChargeDiskRead(b int64, hdfs bool) error {
	return n.chargeDisk(&n.modelled.diskReadBytes, b, n.diskBandwidth(hdfs))
}

// ChargeDiskReadNominal models reading b bytes from the node's local disk
// at the *configured nominal* bandwidth, unaffected by ScaleIO. It is used
// for reads that at production scale are effectively memory-resident — the
// node-local dimension cache, which fits in the page cache of the paper's
// 16-32 GB nodes — so the benchmark harness's bandwidth scaling (which
// restores the fact-scan-to-overhead ratio) does not distort them.
func (n *Node) ChargeDiskReadNominal(b int64) error {
	return n.chargeDisk(&n.modelled.diskReadBytes, b, n.cfg.DiskBandwidth/n.diskSlow.Load())
}

// ChargeDiskWrite models writing b bytes to one local disk.
func (n *Node) ChargeDiskWrite(b int64, hdfs bool) error {
	return n.chargeDisk(&n.modelled.diskWriteBytes, b, n.diskBandwidth(hdfs))
}

// diskBandwidth is the node's live disk bandwidth, through the DFS client
// when hdfs is set.
func (n *Node) diskBandwidth(hdfs bool) float64 {
	bw := n.cluster.live.diskBW.Load() / n.diskSlow.Load()
	if hdfs {
		bw *= n.cfg.HDFSEfficiency
	}
	return bw
}

// chargeDisk is every disk charge: it counts b bytes into bytes, then holds
// a disk stream for the time b takes at bw (nothing when bw is not
// positive).
func (n *Node) chargeDisk(bytes *atomic.Int64, b int64, bw float64) error {
	if !n.IsAlive() {
		return ErrNodeDown
	}
	bytes.Add(b)
	if bw <= 0 {
		return nil
	}
	release := n.acquireDisk()
	defer release()
	n.charge(time.Duration(float64(b) / bw * float64(time.Second)))
	return nil
}

// ChargeNet models transferring b bytes over this node's network interface.
func (n *Node) ChargeNet(b int64) error {
	if !n.IsAlive() {
		return ErrNodeDown
	}
	n.modelled.netBytes.Add(b)
	bw := n.cluster.live.netBW.Load()
	if bw <= 0 {
		return nil
	}
	n.charge(time.Duration(float64(b) / bw * float64(time.Second)))
	return nil
}

// ChargeOverhead models a fixed latency (task launch, JVM start).
func (n *Node) ChargeOverhead(d time.Duration) { n.charge(d) }

// Stats reports the node's accumulated accounting.
type Stats struct {
	DiskReadBytes  int64
	DiskWriteBytes int64
	NetBytes       int64
	ModelTime      time.Duration
}

// Stats returns a snapshot of the node's accounting counters.
func (n *Node) Stats() Stats {
	return Stats{
		DiskReadBytes:  n.modelled.diskReadBytes.Load(),
		DiskWriteBytes: n.modelled.diskWriteBytes.Load(),
		NetBytes:       n.modelled.netBytes.Load(),
		ModelTime:      time.Duration(n.modelled.modelNanos.Load()),
	}
}

// TotalStats sums the accounting across all nodes.
func (c *Cluster) TotalStats() Stats {
	var t Stats
	for _, n := range c.nodes {
		s := n.Stats()
		t.DiskReadBytes += s.DiskReadBytes
		t.DiskWriteBytes += s.DiskWriteBytes
		t.NetBytes += s.NetBytes
		t.ModelTime += s.ModelTime
	}
	return t
}
