// Package hdfs simulates the Hadoop Distributed File System as the paper
// uses it: a namenode tracking files composed of replicated blocks, datanode
// storage on cluster nodes, locality metadata for the MapReduce scheduler,
// and — critically for Clydesdale — pluggable block placement policies, the
// HDFS 0.21 feature CIF relies on to co-locate the column files of a row
// partition on the same set of nodes.
//
// Reads and writes charge modeled I/O time on the involved cluster nodes
// (degraded by the configured HDFS efficiency, reproducing the §6.6
// observation that HDFS delivers a fraction of raw disk bandwidth) and
// remote reads additionally charge network time.
package hdfs

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"clydesdale/internal/cluster"
	"clydesdale/internal/obs"
)

// DefaultBlockSize is the block size used when Options does not override it.
// The simulation defaults to a smaller block than production HDFS (64 MB)
// so that small-scale-factor datasets still span many blocks and exercise
// placement and locality.
const DefaultBlockSize = 4 << 20

// DefaultReplication is the default replica count, matching the paper's
// experimental setup (replication factor three).
const DefaultReplication = 3

// Options configures a FileSystem.
type Options struct {
	// BlockSize is the maximum bytes per block. Defaults to DefaultBlockSize.
	BlockSize int64
	// Replication is the replica count for new files. Defaults to
	// DefaultReplication, capped at the cluster size.
	Replication int
	// Seed seeds placement randomness for reproducible layouts.
	Seed int64
}

// FileSystem is the simulated distributed filesystem: an in-process
// namenode plus block storage attributed to cluster nodes.
type FileSystem struct {
	cluster     *cluster.Cluster
	blockSize   int64
	replication int

	mu       sync.RWMutex
	files    map[string]*fileMeta
	names    []string // the keys of files, sorted: prefix listings search it
	blocks   map[int64]*blockMeta
	policies map[string]PlacementPolicy // path-prefix → policy
	rng      *rand.Rand
	blockSeq int64

	metrics Metrics

	// injector, when non-nil, intercepts every block read for fault
	// injection (see ReadFaultInjector). Guarded by mu; invoked with no
	// filesystem locks held.
	injector ReadFaultInjector

	// Observability hooks, attached by Observe. Guarded by mu; nil when no
	// observer is attached (the default, zero-cost path). observed holds
	// the registries that read metrics, each registered with once.
	tracer   *obs.Tracer
	readNs   *obs.Histogram
	observed map[*obs.Registry]bool
	tables   any // the table registry (a *colstore.Snapshots), made by Tables
}

// ReadFaultInjector intercepts block reads for fault injection. It is
// called once per block-read attempt, before any cost is charged, with the
// serving replica's node ID. Returning a non-nil error makes the read
// attempt fail and fail over to another replica; the injector may also kill
// nodes or slow disks as a side effect. It is invoked with no filesystem
// locks held, so it may call back into the FileSystem (e.g. OnNodeFailure).
type ReadFaultInjector interface {
	BeforeBlockRead(nodeID string, blockID int64) error
}

// SetReadFaultInjector installs (or, with nil, removes) the fault injector
// consulted on every block read. Install before running jobs; the setting is
// not synchronized with in-flight reads.
func (fs *FileSystem) SetReadFaultInjector(inj ReadFaultInjector) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.injector = inj
}

// Metrics exposes the filesystem's read/write accounting.
type Metrics struct {
	LocalBytesRead  atomic.Int64
	RemoteBytesRead atomic.Int64
	BytesWritten    atomic.Int64
	LocalReads      atomic.Int64
	RemoteReads     atomic.Int64
	// Failovers counts read attempts that failed on one replica (dead node,
	// injected error, checksum mismatch) and moved to another.
	Failovers atomic.Int64
	// CRCFailures counts block reads whose replica bytes failed CRC32
	// verification (corruption detected, replica dropped).
	CRCFailures atomic.Int64
	// RereplicationsFailed counts blocks left under-replicated because no
	// eligible target could accept a copy; they are retried on the next
	// failure event.
	RereplicationsFailed atomic.Int64
}

// MetricsSnapshot is a point-in-time copy of Metrics.
type MetricsSnapshot struct {
	LocalBytesRead       int64
	RemoteBytesRead      int64
	BytesWritten         int64
	LocalReads           int64
	RemoteReads          int64
	Failovers            int64
	CRCFailures          int64
	RereplicationsFailed int64
}

// Snapshot returns a copy of the current metric values.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		LocalBytesRead:       m.LocalBytesRead.Load(),
		RemoteBytesRead:      m.RemoteBytesRead.Load(),
		BytesWritten:         m.BytesWritten.Load(),
		LocalReads:           m.LocalReads.Load(),
		RemoteReads:          m.RemoteReads.Load(),
		Failovers:            m.Failovers.Load(),
		CRCFailures:          m.CRCFailures.Load(),
		RereplicationsFailed: m.RereplicationsFailed.Load(),
	}
}

type fileMeta struct {
	path   string
	size   int64
	blocks []*blockMeta
}

type blockMeta struct {
	id       int64
	size     int64
	data     []byte
	crc      uint32   // CRC32 (IEEE) of data, computed at seal time
	replicas []string // node IDs holding a replica
	lost     bool     // true when every replica died before re-replication
	// corrupt maps a replica's node ID to the (bit-flipped) bytes that
	// replica would actually return, modeling on-disk corruption. A replica
	// absent from the map serves the pristine data.
	corrupt map[string][]byte
	// memo is what ReadDecoded's decode first made of data, kept while the
	// block lives (see ReadDecoded).
	memo atomic.Pointer[decoded]
}

// decoded boxes a memoized decode result.
type decoded struct{ v any }

// New creates a filesystem over the given cluster.
func New(c *cluster.Cluster, opts Options) *FileSystem {
	if opts.BlockSize <= 0 {
		opts.BlockSize = DefaultBlockSize
	}
	if opts.Replication <= 0 {
		opts.Replication = DefaultReplication
	}
	if opts.Replication > len(c.Nodes()) {
		opts.Replication = len(c.Nodes())
	}
	return &FileSystem{
		cluster:     c,
		blockSize:   opts.BlockSize,
		replication: opts.Replication,
		files:       make(map[string]*fileMeta),
		blocks:      make(map[int64]*blockMeta),
		policies:    make(map[string]PlacementPolicy),
		rng:         rand.New(rand.NewSource(opts.Seed + 1)),
	}
}

// Cluster returns the underlying cluster.
func (fs *FileSystem) Cluster() *cluster.Cluster { return fs.cluster }

// BlockSize returns the configured block size.
func (fs *FileSystem) BlockSize() int64 { return fs.blockSize }

// Replication returns the configured replica count.
func (fs *FileSystem) Replication() int { return fs.replication }

// Tables returns the filesystem's table registry, made by newTables on the
// first call: every reader and writer of the namespace's tables shares it.
func (fs *FileSystem) Tables(newTables func() any) any {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.tables == nil {
		fs.tables = newTables()
	}
	return fs.tables
}

// Metrics returns the filesystem's accounting counters.
func (fs *FileSystem) Metrics() *Metrics { return &fs.metrics }

// Observe attaches the observability layer: each ReadAt emits an "hdfs-read"
// span into tracer with local/remote byte attrs, and reg gets a read-latency
// histogram and reads the byte and fault counts from Metrics, from the
// filesystem's creation on. Either argument may be nil, and calling Observe
// again with a registry already attached registers nothing twice. Attach
// before running jobs; Observe is not synchronized with in-flight reads.
func (fs *FileSystem) Observe(tracer *obs.Tracer, reg *obs.Registry) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.tracer = tracer
	fs.readNs = nil
	if reg == nil {
		return
	}
	fs.readNs = reg.Histogram("hdfs.read_ns")
	if fs.observed[reg] {
		return
	}
	if fs.observed == nil {
		fs.observed = make(map[*obs.Registry]bool)
	}
	fs.observed[reg] = true
	m := &fs.metrics
	for name, v := range map[string]*atomic.Int64{
		"hdfs.read_bytes_local":     &m.LocalBytesRead,
		"hdfs.read_bytes_remote":    &m.RemoteBytesRead,
		"hdfs.write_bytes":          &m.BytesWritten,
		"hdfs.failovers":            &m.Failovers,
		"hdfs.crc_failures":         &m.CRCFailures,
		"hdfs.rereplication_failed": &m.RereplicationsFailed,
	} {
		reg.CounterFunc(name, v.Load)
	}
}

// CorruptReplica flips bytes in the copy of block blockIdx of path held by
// nodeID, modeling silent on-disk corruption of one replica. The other
// replicas keep the pristine bytes, so a CRC-verifying reader detects the
// damage and fails over. nodeID "" picks the block's first replica. It
// returns the ID of the node whose replica was corrupted.
func (fs *FileSystem) CorruptReplica(path string, blockIdx int, nodeID string) (string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return "", fmt.Errorf("hdfs: corrupt %s: no such file", path)
	}
	if blockIdx < 0 || blockIdx >= len(f.blocks) {
		return "", fmt.Errorf("hdfs: corrupt %s: block %d out of range [0,%d)", path, blockIdx, len(f.blocks))
	}
	b := f.blocks[blockIdx]
	if nodeID == "" {
		if len(b.replicas) == 0 {
			return "", fmt.Errorf("hdfs: corrupt %s block %d: no replicas", path, blockIdx)
		}
		nodeID = b.replicas[0]
	} else {
		found := false
		for _, rep := range b.replicas {
			if rep == nodeID {
				found = true
				break
			}
		}
		if !found {
			return "", fmt.Errorf("hdfs: corrupt %s block %d: node %s holds no replica", path, blockIdx, nodeID)
		}
	}
	bad := append([]byte(nil), b.data...)
	for i := 0; i < len(bad); i += 37 {
		bad[i] ^= 0xA5
	}
	if b.corrupt == nil {
		b.corrupt = make(map[string][]byte)
	}
	b.corrupt[nodeID] = bad
	return nodeID, nil
}

// SetPlacementPolicy installs a pluggable placement policy for all paths
// with the given prefix (mirroring HDFS 0.21's per-path pluggable policies
// that CIF uses). The longest matching prefix wins.
func (fs *FileSystem) SetPlacementPolicy(prefix string, p PlacementPolicy) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.policies[prefix] = p
}

func (fs *FileSystem) policyFor(path string) PlacementPolicy {
	best := ""
	var pol PlacementPolicy
	for prefix, p := range fs.policies {
		if strings.HasPrefix(path, prefix) && len(prefix) > len(best) {
			best, pol = prefix, p
		}
	}
	if pol == nil {
		return defaultPolicy{}
	}
	return pol
}

// Exists reports whether the path exists.
func (fs *FileSystem) Exists(path string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.files[path]
	return ok
}

// FileInfo describes a stored file.
type FileInfo struct {
	Path   string
	Size   int64
	Blocks int
}

// Stat returns metadata for the path.
func (fs *FileSystem) Stat(path string) (FileInfo, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[path]
	if !ok {
		return FileInfo{}, fmt.Errorf("hdfs: stat %s: no such file", path)
	}
	return FileInfo{Path: f.path, Size: f.size, Blocks: len(f.blocks)}, nil
}

// List returns the paths with the given prefix, sorted.
func (fs *FileSystem) List(prefix string) []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	lo, hi := fs.prefixRange(prefix)
	if lo == hi {
		return nil
	}
	return slices.Clone(fs.names[lo:hi])
}

// Visit calls fn with every path that has the given prefix, in sorted order
// and without collecting them, for a caller that folds the names into
// something smaller and would pay List for a copy it drops. fn runs under
// the namespace lock and must not call the filesystem.
func (fs *FileSystem) Visit(prefix string, fn func(path string)) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	lo, hi := fs.prefixRange(prefix)
	for _, p := range fs.names[lo:hi] {
		fn(p)
	}
}

// prefixRange returns the span of names that start with prefix: a binary
// search to its first and a walk over the k it holds. Caller holds fs.mu.
func (fs *FileSystem) prefixRange(prefix string) (lo, hi int) {
	lo, _ = slices.BinarySearch(fs.names, prefix)
	hi = lo
	for hi < len(fs.names) && strings.HasPrefix(fs.names[hi], prefix) {
		hi++
	}
	return lo, hi
}

// addFile, unlink and forgetBlocks change the namespace, keeping names in
// step with files. Caller holds fs.mu exclusively.
func (fs *FileSystem) addFile(f *fileMeta) {
	fs.files[f.path] = f
	i, _ := slices.BinarySearch(fs.names, f.path)
	fs.names = slices.Insert(fs.names, i, f.path)
}

// unlink takes path out of the namespace and returns its file, nil if there
// is none; the blocks stay.
func (fs *FileSystem) unlink(path string) *fileMeta {
	f, ok := fs.files[path]
	if !ok {
		return nil
	}
	delete(fs.files, path)
	if i, ok := slices.BinarySearch(fs.names, path); ok {
		fs.names = slices.Delete(fs.names, i, i+1)
	}
	return f
}

// forgetBlocks deletes blocks, and with them what reads memoized of them.
func (fs *FileSystem) forgetBlocks(blocks []*blockMeta) {
	for _, b := range blocks {
		delete(fs.blocks, b.id)
		b.memo.Store(nil)
	}
}

// Delete removes the path (and its blocks). Deleting a missing path is not
// an error, matching HDFS semantics with recursive delete.
func (fs *FileSystem) Delete(path string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f := fs.unlink(path); f != nil {
		fs.forgetBlocks(f.blocks)
	}
}

// DeletePrefix removes every path with the given prefix.
func (fs *FileSystem) DeletePrefix(prefix string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	lo, hi := fs.prefixRange(prefix)
	for _, p := range fs.names[lo:hi] {
		fs.forgetBlocks(fs.files[p].blocks)
		delete(fs.files, p)
	}
	fs.names = slices.Delete(fs.names, lo, hi)
}

// Rename moves src to dst. dst must not exist.
func (fs *FileSystem) Rename(src, dst string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[src]
	if !ok {
		return fmt.Errorf("hdfs: rename %s: no such file", src)
	}
	if _, exists := fs.files[dst]; exists {
		return fmt.Errorf("hdfs: rename to %s: destination exists", dst)
	}
	fs.unlink(src)
	f.path = dst
	fs.addFile(f)
	return nil
}

// BlockLocation describes one block of a file: its byte range within the
// file and the nodes holding replicas.
type BlockLocation struct {
	Offset int64
	Length int64
	Hosts  []string
}

// BlockLocations returns the blocks overlapping [offset, offset+length) of
// the file, in order, with their replica hosts — the locality metadata the
// MapReduce scheduler consumes.
func (fs *FileSystem) BlockLocations(path string, offset, length int64) ([]BlockLocation, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("hdfs: locations %s: no such file", path)
	}
	var out []BlockLocation
	var pos int64
	end := offset + length
	for _, b := range f.blocks {
		bEnd := pos + b.size
		if bEnd > offset && pos < end {
			out = append(out, BlockLocation{
				Offset: pos,
				Length: b.size,
				Hosts:  append([]string(nil), b.replicas...),
			})
		}
		pos = bEnd
	}
	return out, nil
}

// nextBlockID allocates a block ID. Caller holds fs.mu.
func (fs *FileSystem) nextBlockID() int64 {
	fs.blockSeq++
	return fs.blockSeq
}
