package hdfs

import (
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
	"time"

	"clydesdale/internal/cluster"
	"clydesdale/internal/obs"
)

// Writer streams data into a new file. Data becomes visible atomically at
// Close, like an HDFS file being closed. Writer is not safe for concurrent
// use.
type Writer struct {
	fs       *FileSystem
	path     string
	writer   string // node ID of the writing client, or "" for external
	reserved bool   // the name is taken in the namespace
	placed   int    // blocks given replica targets so far
	buf      []byte
	blocks   []*blockMeta
	size     int64
	closed   bool
}

// Create starts writing a new file. writerNode is the cluster node the
// writing client runs on (used for replica placement and local-write
// accounting); pass "" for an external client. Create fails if the path
// already exists.
func (fs *FileSystem) Create(path, writerNode string) (*Writer, error) {
	w := &Writer{fs: fs, path: path, writer: writerNode}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := w.reserve(); err != nil {
		return nil, err
	}
	return w, nil
}

// reserve takes the writer's name in the namespace, so concurrent creators
// conflict deterministically. Caller holds fs.mu.
func (w *Writer) reserve() error {
	if w.reserved {
		return nil
	}
	if _, exists := w.fs.files[w.path]; exists {
		return fmt.Errorf("hdfs: create %s: file exists", w.path)
	}
	w.fs.files[w.path] = &fileMeta{path: w.path}
	w.reserved = true
	return nil
}

// Write buffers p, sealing full blocks as they fill.
func (w *Writer) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("hdfs: write to closed writer for %s", w.path)
	}
	w.buf = append(w.buf, p...)
	for int64(len(w.buf)) >= w.fs.blockSize {
		if err := w.fs.seal([]*sealing{{w: w, data: w.buf[:w.fs.blockSize]}}); err != nil {
			return 0, err
		}
		w.buf = w.buf[w.fs.blockSize:]
	}
	return len(p), nil
}

// sealing is one step of a write on its way into the filesystem: a block
// of a file, the end of the file, or both.
type sealing struct {
	w    *Writer
	data []byte // the block; empty only with last: an empty file, or one whose last Write filled a block
	last bool   // the file ends here: recording this step publishes it

	id      int64
	targets []*cluster.Node
	block   *blockMeta
}

// seal stores blocks: chooses replica targets via the placement policy,
// charges the write pipeline, records the blocks and publishes the files
// that end with one of them.
//
// A writer beside running tasks parks whenever it finds the namenode lock
// taken and then queues for a processor behind those tasks, so what a write
// costs is set by how often it takes that lock, not by how long it holds it.
// seal takes it twice for everything it is given: once to reserve names and
// place blocks, once to record and publish.
func (fs *FileSystem) seal(steps []*sealing) error {
	var alive []*cluster.Node
	for _, s := range steps {
		if len(s.data) > 0 {
			if alive = fs.cluster.Alive(); len(alive) == 0 {
				return fmt.Errorf("hdfs: write %s: no alive datanodes", s.w.path)
			}
			break
		}
	}

	fs.mu.Lock()
	for _, s := range steps {
		if err := s.w.reserve(); err != nil {
			fs.mu.Unlock()
			return err
		}
		if len(s.data) == 0 {
			continue
		}
		s.id = fs.nextBlockID()
		s.targets = fs.policyFor(s.w.path).ChooseTargets(s.w.path, s.w.placed, fs.replication, s.w.writer, alive, fs.rng)
		s.w.placed++
	}
	fs.mu.Unlock()

	for _, s := range steps {
		if len(s.data) == 0 {
			continue
		}
		if len(s.targets) == 0 {
			return fmt.Errorf("hdfs: write %s: placement policy returned no targets", s.w.path)
		}
		// Charge the replication pipeline: every replica pays a disk write;
		// every hop that crosses nodes pays network on the receiver.
		for i, n := range s.targets {
			if err := n.ChargeDiskWrite(int64(len(s.data)), true); err != nil {
				return fmt.Errorf("hdfs: write %s: %w", s.w.path, err)
			}
			crossesNetwork := i > 0 || n.ID() != s.w.writer
			if crossesNetwork {
				if err := n.ChargeNet(int64(len(s.data))); err != nil {
					return fmt.Errorf("hdfs: write %s: %w", s.w.path, err)
				}
			}
		}
		fs.metrics.BytesWritten.Add(int64(len(s.data)))
		s.block = &blockMeta{
			id:   s.id,
			size: int64(len(s.data)),
			data: append([]byte(nil), s.data...),
			crc:  crc32.ChecksumIEEE(s.data),
		}
		for _, n := range s.targets {
			s.block.replicas = append(s.block.replicas, n.ID())
		}
	}

	fs.mu.Lock()
	for _, s := range steps {
		w := s.w
		if s.block != nil {
			fs.blocks[s.id] = s.block
			w.blocks = append(w.blocks, s.block)
			w.size += s.block.size
		}
		if s.last {
			f := fs.files[w.path]
			f.size = w.size
			f.blocks = w.blocks
		}
	}
	fs.mu.Unlock()
	return nil
}

// Close seals any buffered remainder and publishes the file.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	buf := w.buf
	w.buf = nil
	return w.fs.seal([]*sealing{{w: w, data: buf, last: true}})
}

// Abort discards a partially written file.
func (w *Writer) Abort() {
	if w.closed {
		return
	}
	w.closed = true
	fs := w.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, b := range w.blocks {
		delete(fs.blocks, b.id)
	}
	if w.reserved {
		delete(fs.files, w.path)
	}
}

// File is one file of a WriteFiles call.
type File struct {
	Path string
	Data []byte
}

// WriteFile writes data as a new file in one call. It fails if the path
// already exists.
func (fs *FileSystem) WriteFile(path, writerNode string, data []byte) error {
	return fs.WriteFiles(writerNode, []File{{Path: path, Data: data}})
}

// WriteFiles writes several new files in one pass over the namenode: all
// names are reserved and all blocks placed together, then charged, then
// recorded and published together, in the order given. It fails, leaving
// none of the files behind, if any path already exists or a write fails.
func (fs *FileSystem) WriteFiles(writerNode string, files []File) error {
	var steps []*sealing
	writers := make([]*Writer, len(files))
	for i, f := range files {
		// Not Create: seal reserves the names, in the acquisition that
		// places the blocks.
		w := &Writer{fs: fs, path: f.Path, writer: writerNode}
		writers[i] = w
		data := f.Data
		for int64(len(data)) > fs.blockSize {
			steps = append(steps, &sealing{w: w, data: data[:fs.blockSize]})
			data = data[fs.blockSize:]
		}
		steps = append(steps, &sealing{w: w, data: data, last: true})
	}
	err := fs.seal(steps)
	if err != nil {
		for _, w := range writers {
			w.Abort()
		}
	}
	return err
}

// Reader reads a file with locality-aware cost accounting. It implements
// io.ReaderAt and io.Closer. Reader is not safe for concurrent use (create
// one per task thread, as HDFS clients do).
type Reader struct {
	fs     *FileSystem
	meta   *fileMeta
	client string
	trace  obs.SpanContext
}

// SetTrace parents the reader's hdfs-read spans at the given trace position
// (a task attempt's span context), correlating filesystem reads into their
// query's profile. The zero value leaves spans uncorrelated.
func (r *Reader) SetTrace(sc obs.SpanContext) { r.trace = sc }

// Open opens a file for reading. clientNode is the cluster node the reading
// task runs on; pass "" for an external client.
func (fs *FileSystem) Open(path, clientNode string) (*Reader, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("hdfs: open %s: no such file", path)
	}
	return &Reader{fs: fs, meta: f, client: clientNode}, nil
}

// Size returns the file's length in bytes.
func (r *Reader) Size() int64 {
	r.fs.mu.RLock()
	defer r.fs.mu.RUnlock()
	return r.meta.size
}

// Close releases the reader.
func (r *Reader) Close() error { return nil }

// ReadAt reads len(p) bytes at offset off, charging each traversed block's
// serving node (disk) and, for remote replicas, the network. With an
// observer attached (FileSystem.Observe) it emits one "hdfs-read" span per
// call carrying the file path and the local/remote byte split.
func (r *Reader) ReadAt(p []byte, off int64) (int, error) {
	_, n, err := r.read(p, off, false)
	return n, err
}

// read serves the file's bytes block by block through serveBlock and
// records the read once: the local/remote byte counters, the read-time
// histogram and one "hdfs-read" span. It copies the bytes [off,
// off+len(p)) into p and returns p. With whole set (p nil, off 0) it reads
// the entire file instead: the bytes of a one-block file are the verified
// replica's own, capped so an append cannot reach them, and any other file
// is copied into a fresh buffer.
func (r *Reader) read(p []byte, off int64, whole bool) ([]byte, int, error) {
	fs := r.fs
	fs.mu.RLock()
	size := r.meta.size
	blocks := r.meta.blocks
	path := r.meta.path
	tracer := fs.tracer
	readNs := fs.readNs
	fs.mu.RUnlock()

	observing := tracer.Enabled() || readNs != nil
	var start time.Time
	if observing {
		start = time.Now()
	}

	view := whole && len(blocks) == 1
	if whole && !view {
		p = make([]byte, size)
	}
	if off >= size {
		return p, 0, io.EOF
	}
	want := int64(len(p))
	if view {
		want = size
	} else if off+want > size {
		want = size - off
	}
	var done, localBytes, remoteBytes int64
	var pos int64
	var rerr error
	for _, b := range blocks {
		bStart, bEnd := pos, pos+b.size
		pos = bEnd
		if bEnd <= off || bStart >= off+want {
			continue
		}
		from := max64(off, bStart) - bStart
		to := min64(off+want, bEnd) - bStart
		served, local, err := r.serveBlock(b, from, to)
		if view {
			p = served[:len(served):len(served)]
		} else {
			copy(p[done:], served)
		}
		n := int64(len(served))
		done += n
		if local {
			localBytes += n
		} else {
			remoteBytes += n
		}
		if err != nil {
			rerr = err
			break
		}
	}
	if observing {
		end := time.Now()
		if readNs != nil {
			readNs.ObserveDuration(end.Sub(start))
		}
		if tracer.Enabled() {
			s := obs.Span{
				Name:  obs.PhaseHDFSRead,
				Node:  r.client,
				Start: start,
				End:   end,
				Attrs: obs.Attrs("path", path,
					"local_bytes", strconv.FormatInt(localBytes, 10),
					"remote_bytes", strconv.FormatInt(remoteBytes, 10)),
			}
			r.trace.NewChild().Fill(&s, r.trace.Span)
			tracer.Emit(s)
		}
	}
	if rerr != nil {
		return p, int(done), rerr
	}
	if done < int64(len(p)) {
		return p, int(done), io.EOF
	}
	return p, int(done), nil
}

// serveBlock serves block bytes [from, to) from one verified replica and
// charges costs. It returns the replica's own bytes, not a copy, so the
// caller must not write into them, and reports whether they came from a
// local replica.
//
// The read loops over replicas until one serves the bytes: each iteration
// re-reads the replica set and liveness under the lock (a replica that was
// alive at selection time may die before it is charged — the loop simply
// moves on), consults the fault injector, and CRC-verifies the replica's
// bytes so corruption is detected and failed over rather than returned.
// Locality is re-derived per attempt so failover from a dead local replica
// is accounted as a remote read. The loop terminates because every
// iteration marks one replica attempted and never retries it.
func (r *Reader) serveBlock(b *blockMeta, from, to int64) ([]byte, bool, error) {
	fs := r.fs
	attempted := make(map[string]bool)
	var lastErr error
	for {
		fs.mu.RLock()
		injector := fs.injector
		lost := b.lost || len(b.replicas) == 0
		// Prefer the client's own replica; otherwise first unattempted
		// replica on a live node.
		var serving string
		for _, rep := range b.replicas {
			if rep == r.client && !attempted[rep] {
				serving = rep
				break
			}
		}
		if serving == "" {
			for _, rep := range b.replicas {
				if attempted[rep] {
					continue
				}
				if nd := fs.cluster.Node(rep); nd != nil && nd.IsAlive() {
					serving = rep
					break
				}
			}
		}
		data := b.data
		crc := b.crc
		override := b.corrupt[serving]
		fs.mu.RUnlock()

		if lost {
			return nil, false, fmt.Errorf("hdfs: block %d of %s: all replicas lost", b.id, r.meta.path)
		}
		if serving == "" {
			if lastErr != nil {
				return nil, false, fmt.Errorf("hdfs: block %d of %s: no live replica: %w", b.id, r.meta.path, lastErr)
			}
			return nil, false, fmt.Errorf("hdfs: block %d of %s: no live replica", b.id, r.meta.path)
		}
		attempted[serving] = true
		local := serving == r.client

		node := fs.cluster.Node(serving)
		if node == nil || !node.IsAlive() {
			lastErr = fmt.Errorf("hdfs: block %d of %s: replica on %s: node down", b.id, r.meta.path, serving)
			fs.metrics.Failovers.Add(1)
			continue
		}

		// Fault injection point: may return a transient error or kill nodes
		// as a side effect. Called with no locks held.
		if injector != nil {
			if err := injector.BeforeBlockRead(serving, b.id); err != nil {
				lastErr = fmt.Errorf("hdfs: block %d of %s: replica on %s: %w", b.id, r.meta.path, serving, err)
				fs.metrics.Failovers.Add(1)
				continue
			}
			// The injector may have killed the serving node.
			if !node.IsAlive() {
				lastErr = fmt.Errorf("hdfs: block %d of %s: replica on %s: node down", b.id, r.meta.path, serving)
				fs.metrics.Failovers.Add(1)
				continue
			}
		}

		// Verify the replica's bytes against the block checksum before
		// handing anything to the caller; a corrupted replica is dropped
		// from the replica set and the read fails over.
		replicaData := data
		if override != nil {
			replicaData = override
		}
		if crc32.ChecksumIEEE(replicaData) != crc {
			fs.metrics.CRCFailures.Add(1)
			fs.reportBadReplica(b, serving, r.meta.path)
			lastErr = fmt.Errorf("hdfs: block %d of %s: replica on %s: checksum mismatch", b.id, r.meta.path, serving)
			fs.metrics.Failovers.Add(1)
			continue
		}

		if err := node.ChargeDiskRead(to-from, true); err != nil {
			lastErr = fmt.Errorf("hdfs: block %d of %s: replica on %s: %w", b.id, r.meta.path, serving, err)
			fs.metrics.Failovers.Add(1)
			continue
		}

		served := replicaData[from:to]
		n := len(served)
		if local {
			fs.metrics.LocalReads.Add(1)
			fs.metrics.LocalBytesRead.Add(int64(n))
		} else {
			fs.metrics.RemoteReads.Add(1)
			fs.metrics.RemoteBytesRead.Add(int64(n))
			// The transfer crosses the network; charge the client side when
			// the client is a cluster node, else the serving side. A dead
			// client cannot be failed over — the read itself has no home —
			// so that error is returned rather than retried.
			target := fs.cluster.Node(r.client)
			if target == nil {
				target = node
			}
			if err := target.ChargeNet(int64(n)); err != nil {
				return nil, local, err
			}
		}
		return served, local, nil
	}
}

// reportBadReplica removes a corrupted replica from the block and
// re-replicates from a surviving good copy (best effort: a failed
// re-replication leaves the block under-replicated for the next failure
// event to retry). If the bad replica was the last one, the block is lost.
func (fs *FileSystem) reportBadReplica(b *blockMeta, nodeID, path string) {
	fs.mu.Lock()
	removed := false
	keep := b.replicas[:0]
	for _, rep := range b.replicas {
		if rep == nodeID {
			removed = true
			continue
		}
		keep = append(keep, rep)
	}
	b.replicas = keep
	delete(b.corrupt, nodeID)
	gone := len(b.replicas) == 0
	if gone {
		b.lost = true
	}
	fs.mu.Unlock()
	if !removed || gone {
		return
	}
	if err := fs.rereplicate(b, path); err != nil {
		fs.metrics.RereplicationsFailed.Add(1)
	}
}

// ReadAll reads the entire file. The returned bytes are read-only for
// life: a file of one block returns its verified replica's own bytes, which
// every replica of the block shares, so a single write into them would
// corrupt the block for every later reader. Callers may hold them as long
// as they like (column decoders, a distributed-cache file's node-local
// copies), and must copy before changing them. A file of several blocks, and
// an empty one, still come back as a fresh copy.
func (fs *FileSystem) ReadAll(path, clientNode string) ([]byte, error) {
	return fs.ReadAllTraced(path, clientNode, obs.SpanContext{})
}

// ReadAllTraced reads the entire file with the read span parented at the
// given trace position (the task phase doing the read), so whole-file reads
// — the column-store load path — land inside their phase in the profile.
// Its bytes are read-only for life, as ReadAll's are.
func (fs *FileSystem) ReadAllTraced(path, clientNode string, sc obs.SpanContext) ([]byte, error) {
	r, err := fs.Open(path, clientNode)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	r.SetTrace(sc)
	data, _, err := r.read(nil, 0, true)
	if err != nil && err != io.EOF {
		return nil, err
	}
	return data, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
