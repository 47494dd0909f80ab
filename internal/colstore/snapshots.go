package colstore

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"clydesdale/internal/hdfs"
	"clydesdale/internal/obs"
	"clydesdale/internal/records"
)

// Snapshots is the table-visibility registry that makes roll-in, compaction
// and retention safe to run while queries execute, and the one place that
// knows table versions. A filesystem has one (NewSnapshots). It owns six
// things:
//
//   - Table versions. A row table (a dimension) is append-only: its version
//     is the number of part files published into it, so any past version is
//     still readable as a file prefix (EncodeRowTable). A partitioned table
//     (the fact) has a content version that moves on whenever its row
//     multiset changes: when a roll-in publishes or a retention retires, not
//     when a compaction exchanges partitions.
//   - Partition lists. For each partitioned table it has seen, the
//     committed partitions in numeric order and the next partition index:
//     the index after every partition directory, committed or not, that
//     any writer has staged. The list is read from the filesystem the
//     first time the registry sees the table, and on Bump and
//     SweepUncommitted (relistLocked); from then on every commit and
//     retirement goes through swap, which keeps it. Every CIFWriter names
//     its partitions from the next index (claim).
//   - Pinned snapshots. A query acquires its fact partition list and the
//     version of every row table it joins exactly once, at plan time, under
//     one hold of the mutex; every pass reads that frozen vector, so the
//     query sees one state of every table end to end.
//   - Atomic visibility swaps. Every publish and retirement happens under
//     the mutex Acquire takes, so a snapshot observes a table strictly
//     before or strictly after a batch — never a half-published roll-in or
//     a half-retired compaction.
//   - The writer lock. RollIn, AppendRows, ExpireBefore, SweepUncommitted
//     and Bump hold it from staging through the publish, and Compact from
//     staging its rewrite through the swap (it reads its inputs through a
//     pin beforehand), so one writer at a time changes a filesystem's
//     tables. Queries (Acquire, Versions, Release) never take it. A rows
//     callback must not write through the registry: it would wait on its
//     own lock. Every holder is timed (Observe).
//   - Row-table images. The column set EncodeRowTable makes of a row
//     table's version, one per table: the newest version read so far, as
//     its files held it (image).
//
// Retired partitions are unlinked from visibility immediately (their commit
// marker is removed) but physically deleted only once no pinned snapshot
// still reads them; until then an in-flight query keeps scanning the
// pre-swap state it pinned.
type Snapshots struct {
	fs    *hdfs.FileSystem
	write sync.Mutex // the writer lock, taken before mu
	// The writer lock's totals: time waited for it, time held, holds.
	writerWait, writerHold, writerHolds atomic.Int64

	mu       sync.Mutex
	lists    map[string]*partList          // dir → a partitioned table's partitions
	live     map[string]map[*Snapshot]bool // dir → pinned snapshots
	doomed   map[string][]string           // dir → retired, delete when unpinned
	versions map[string]uint64             // dir → content version or part files published
	observed map[*obs.Registry]bool        // registries showing the writer lock's totals
	images   map[string]*rowImage          // dir → a row table's newest image
	// imagesEncoded counts EncodeRowTable's encodes, kept or not.
	imagesEncoded atomic.Int64
}

// rowImage is the column set of one version of a row table, as the files
// key names held it: the schema and the part files' block IDs, which the
// filesystem never reuses, so a table written again at the same version
// has a new key. mu is held while it is encoded, so racing first readers
// make one encode; data is nil until one succeeds.
type rowImage struct {
	version uint64
	key     string
	mu      sync.Mutex
	data    []byte
}

// image returns the registry's image of the version of the row table at
// dir whose files key names, an empty one to fill the first time. It keeps
// one image per table, the newest version's: an image of a newer version,
// or of another key at the same version, replaces the one kept, and one of
// an older version is the caller's alone.
func (s *Snapshots) image(dir string, version uint64, key string) *rowImage {
	s.mu.Lock()
	defer s.mu.Unlock()
	im := s.images[dir]
	if im != nil && im.version == version && im.key == key {
		return im
	}
	fresh := &rowImage{version: version, key: key}
	if im == nil || im.version <= version {
		s.images[dir] = fresh
	}
	return fresh
}

// partList is what the registry knows of a partitioned table's partitions,
// and the writer its roll-ins stage with: its row block and encode scratch
// serve one RollIn after another (each holds the writer lock), so a roll-in
// does not allocate them afresh. forget drops both.
type partList struct {
	parts   []string // committed, in numeric order
	next    int      // the index after every partition directory staged so far
	staging *CIFWriter
}

// NewSnapshots returns the filesystem's one registry, creating it on the
// first call: every handle on a filesystem is the same pointer.
func NewSnapshots(fs *hdfs.FileSystem) *Snapshots {
	return fs.Tables(func() any {
		return &Snapshots{
			fs:       fs,
			lists:    make(map[string]*partList),
			observed: make(map[*obs.Registry]bool),
			images:   make(map[string]*rowImage),
			live:     make(map[string]map[*Snapshot]bool),
			doomed:   make(map[string][]string),
			versions: make(map[string]uint64),
		}
	}).(*Snapshots)
}

// Snapshot is one pinned {table → version} vector: the partition list of
// Dir, and in Versions its content version followed by the version of each
// row table acquired with it, in argument order. It is immutable; Release
// it when the query ends so retired partitions it pinned can be reclaimed.
type Snapshot struct {
	Dir      string
	Parts    []string
	Versions []uint64

	reg      *Snapshots
	released bool
}

// Acquire pins the current state of the partitioned table at dir together
// with the current version of every listed row table. All of it is read
// under one hold of the registry mutex, so the vector is atomic with respect
// to every publish: a concurrent roll-in into any of the tables, or a
// compaction, is observed fully or not at all. The partition list is a copy
// of the registry's.
func (s *Snapshots) Acquire(dir string, rowTables ...string) (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	parts := slices.Clone(s.listLocked(dir).parts)
	sn := &Snapshot{Dir: dir, Parts: parts, Versions: s.versionsLocked(dir, rowTables), reg: s}
	if s.live[dir] == nil {
		s.live[dir] = make(map[*Snapshot]bool)
	}
	s.live[dir][sn] = true
	return sn, nil
}

// partitions returns a copy of the committed partition list of the table at
// dir.
func (s *Snapshots) partitions(dir string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.listLocked(dir).parts)
}

// listLocked returns the registry's list of the table at dir, reading it
// from the filesystem the first time the registry sees the table.
func (s *Snapshots) listLocked(dir string) *partList {
	if l := s.lists[dir]; l != nil {
		return l
	}
	s.relistLocked(dir)
	return s.lists[dir]
}

// relistLocked reads the partition list of the table at dir from the
// filesystem: on first sight, in Bump and in SweepUncommitted, and when a
// partition name the registry was about to hand out is taken (claim). It
// returns every partition directory and the set of committed ones. The
// next index never moves back: a name once handed out is not handed out
// again.
func (s *Snapshots) relistLocked(dir string) (all []string, committed map[string]bool) {
	all, committed = scanPartitionDirs(s.fs, dir)
	l := s.lists[dir]
	if l == nil {
		l = &partList{}
		s.lists[dir] = l
	}
	l.parts = nil
	for _, p := range all {
		if committed[p] {
			l.parts = append(l.parts, p)
		}
		if n, ok := partitionIndex(p); ok && n >= l.next {
			l.next = n + 1
		}
	}
	sortPartitionDirs(l.parts)
	return all, committed
}

// forget drops what the registry knows of the table at dir's partitions,
// and its roll-in staging: a new table of that name is being written
// (NewCIFWriter).
func (s *Snapshots) forget(dir string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.lists, dir)
}

// claim names the next partition of the table at dir for a writer to
// flush. One lookup checks that no writer outside the registry took the
// name meanwhile (an AppendPartitions not yet Bumped, a crashed writer's
// debris); if one did, the table is re-listed, so no partition is ever
// written over another.
func (s *Snapshots) claim(dir string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.listLocked(dir)
	pdir := fmt.Sprintf("%s/p-%05d", dir, l.next)
	if s.fs.Exists(pdir + "/" + StatsFileName) {
		s.relistLocked(dir)
		pdir = fmt.Sprintf("%s/p-%05d", dir, l.next)
	}
	l.next++
	return pdir
}

// lockWriter takes the writer lock, counting the wait, and returns when it
// was taken for unlockWriter, which counts the hold.
func (s *Snapshots) lockWriter() time.Time {
	start := time.Now()
	s.write.Lock()
	held := time.Now()
	s.writerWait.Add(int64(held.Sub(start)))
	return held
}

func (s *Snapshots) unlockWriter(held time.Time) {
	s.writerHold.Add(int64(time.Since(held)))
	s.writerHolds.Add(1)
	s.write.Unlock()
}

// Observe shows the writer lock's totals in reg as counters named prefix
// and writer_wait_ns, writer_hold_ns and writer_holds: the time writers
// waited for the lock, the time they held it, and the number of holds,
// since the registry was made. Every holder counts: a roll-in, an append, a
// compaction's stage and swap, a retention, a sweep, a bump. Beside them
// colstore.dim_images_encoded counts the row-table images EncodeRowTable
// encoded. Observing one obs registry again registers nothing twice, so
// sessions sharing one do not add the filesystem's totals up.
func (s *Snapshots) Observe(reg *obs.Registry, prefix string) {
	s.mu.Lock()
	seen := s.observed[reg]
	s.observed[reg] = true
	s.mu.Unlock()
	if seen {
		return
	}
	reg.CounterFunc(prefix+"writer_wait_ns", s.writerWait.Load)
	reg.CounterFunc(prefix+"writer_hold_ns", s.writerHold.Load)
	reg.CounterFunc(prefix+"writer_holds", s.writerHolds.Load)
	reg.CounterFunc("colstore.dim_images_encoded", s.imagesEncoded.Load)
}

// Versions returns the vector Acquire would pin, without listing or pinning
// anything: counters read under the mutex.
func (s *Snapshots) Versions(dir string, rowTables ...string) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.versionsLocked(dir, rowTables)
}

func (s *Snapshots) versionsLocked(dir string, rowTables []string) []uint64 {
	out := make([]uint64, 1+len(rowTables))
	out[0] = s.versions[dir]
	for i, t := range rowTables {
		out[1+i] = s.rowVersionLocked(t)
	}
	return out
}

// rowVersionLocked is the row table's version, counted from its files the
// first time the registry sees it.
func (s *Snapshots) rowVersionLocked(dir string) uint64 {
	v, ok := s.versions[dir]
	if !ok {
		if v = RowTableVersion(s.fs, dir); v > 0 {
			s.versions[dir] = v
		}
	}
	return v
}

// Bump gives the table at dir a new version after a writer outside the
// registry changed it: a row table is recounted from its part files, a
// partitioned table's content version moves on by one and its partition
// list is read again.
func (s *Snapshots) Bump(dir string) {
	held := s.lockWriter()
	defer s.unlockWriter(held)
	s.mu.Lock()
	defer s.mu.Unlock()
	if v := RowTableVersion(s.fs, dir); v > 0 {
		s.versions[dir] = v
	} else {
		s.versions[dir]++
		s.relistLocked(dir)
	}
}

// Held reports what readers hold of the partitioned table at dir: the
// snapshots pinned on it, and the retired partitions those keep from
// deletion.
func (s *Snapshots) Held(dir string) (pins, unreaped int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.live[dir]), len(s.doomed[dir])
}

// Release unpins the snapshot, physically deleting any retired partitions
// no other snapshot still reads. Safe on nil and idempotent.
func (sn *Snapshot) Release() {
	if sn == nil || sn.reg == nil {
		return
	}
	s := sn.reg
	s.mu.Lock()
	defer s.mu.Unlock()
	if sn.released {
		return
	}
	sn.released = true
	delete(s.live[sn.Dir], sn)
	if len(s.live[sn.Dir]) == 0 {
		delete(s.live, sn.Dir)
	}
	s.reapLocked(sn.Dir)
}

// reapLocked deletes the doomed partitions of dir that no live snapshot
// reads.
func (s *Snapshots) reapLocked(dir string) {
	remaining := slices.DeleteFunc(s.doomed[dir], func(p string) bool {
		for sn := range s.live[dir] {
			if slices.Contains(sn.Parts, p) {
				return false
			}
		}
		s.fs.DeletePrefix(p + "/")
		return true
	})
	if len(remaining) == 0 {
		delete(s.doomed, dir)
	} else {
		s.doomed[dir] = remaining
	}
}

// swap commits the staged partitions of publish and retires those of retire
// under the mutex Acquire takes, so no snapshot sees a partition beside the
// ones it replaces; retired ones are deleted once no snapshot pins them.
// The table's partition list changes with the markers. newContent gives the
// table a new content version (roll-in, retention); a compaction's exchange
// keeps it. Marker writes can fail (no alive datanodes): then nothing was
// retired and the published prefix is committed, so a retry is idempotent.
// Registry writers hold the writer lock; a CIFWriter that commits as it
// goes (a load, AppendPartitions) swaps one partition in at a time without
// it.
func (s *Snapshots) swap(dir string, publish, retire []string, newContent bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.listLocked(dir)
	for _, p := range publish {
		if err := commitPartition(s.fs, p); err != nil {
			return err
		}
		l.parts = insertPartition(l.parts, p)
	}
	for _, p := range retire {
		s.fs.Delete(p + "/" + CommitMarkerName)
		s.doomed[dir] = append(s.doomed[dir], p)
		if i := slices.Index(l.parts, p); i >= 0 {
			l.parts = slices.Delete(l.parts, i, i+1)
		}
	}
	s.reapLocked(dir)
	if newContent && len(publish)+len(retire) > 0 {
		s.versions[dir]++
	}
	return nil
}

// insertPartition adds p to parts, kept in numeric order, unless it is
// there already. Newly staged partitions number after the others, so the
// search starts at the end.
func insertPartition(parts []string, p string) []string {
	n, _ := partitionIndex(p)
	i := len(parts)
	for ; i > 0; i-- {
		if m, ok := partitionIndex(parts[i-1]); ok && m <= n {
			break
		}
	}
	if i > 0 && parts[i-1] == p {
		return parts
	}
	return slices.Insert(parts, i, p)
}

// SweepUncommitted removes the partition directories of the table at dir
// that never committed — the debris of writers that crashed between phases
// — and returns them. A retired partition a pinned snapshot still reads has
// lost its marker too, but it is not debris: the sweep skips it, under the
// mutex that retires and reaps. It holds the writer lock, so no partition it
// finds uncommitted is one a writer is still staging.
func (s *Snapshots) SweepUncommitted(dir string) []string {
	held := s.lockWriter()
	defer s.unlockWriter(held)
	s.mu.Lock()
	defer s.mu.Unlock()
	all, committed := s.relistLocked(dir)
	var swept []string
	for _, p := range all {
		if committed[p] || slices.Contains(s.doomed[dir], p) {
			continue
		}
		s.fs.DeletePrefix(p + "/")
		swept = append(swept, p)
	}
	return swept
}

// RollIn appends a batch of rows to the table, visible atomically: rows are
// staged into fresh uncommitted partitions, then the whole batch publishes
// in one swap, all under the writer lock. On error nothing became visible
// and the staged debris is removed — an acknowledged (nil-error) roll-in is
// durable and complete, a failed one is invisible. Returns the row count and
// published partitions.
func (s *Snapshots) RollIn(dir string, partitionRows int64, rows func(emit func(records.Record) error) error) (int64, []string, error) {
	held := s.lockWriter()
	defer s.unlockWriter(held)
	schema, err := ReadSchema(s.fs, dir)
	if err != nil {
		return 0, nil, err
	}
	w := s.stagingWriter(dir, schema, partitionRows)
	if err := rows(func(r records.Record) error { return w.Append(r) }); err != nil {
		w.DiscardPending()
		return 0, nil, err
	}
	if err := w.Close(); err != nil {
		w.DiscardPending()
		return 0, nil, err
	}
	pending := w.Pending()
	if len(pending) == 0 {
		return 0, nil, nil
	}
	if err := s.swap(dir, pending, nil, true); err != nil {
		return 0, nil, err
	}
	return w.Rows(), pending, nil
}

// stagingWriter returns the table's staged writer (StagePartitions), reset
// for a new batch: the one the last roll-in into the table used when the
// schema and partition size are the same, else a new one kept for the next.
// The caller holds the writer lock.
func (s *Snapshots) stagingWriter(dir string, schema *records.Schema, partitionRows int64) *CIFWriter {
	if partitionRows <= 0 {
		partitionRows = DefaultPartitionRows
	}
	s.mu.Lock()
	l := s.listLocked(dir)
	w := l.staging
	if w == nil || !w.schema.Equal(schema) || w.partitionRows != partitionRows {
		w = newCIFWriter(s.fs, dir, schema, partitionRows)
		w.staged = true
		l.staging = w
	}
	s.mu.Unlock()
	w.block.Reset()
	w.rows, w.closed, w.pending = 0, false, nil
	return w
}

// AppendRows rolls a batch of rows into the row table at dir as its next
// part file and version: rows stream into a "_"-prefixed name no reader
// opens, which is renamed into place, and counted, under the registry mutex
// once its footer is written. The name is picked and the file renamed under
// one hold of the writer lock. A snapshot pins the table before the batch or
// after it; a failed or empty batch publishes nothing and leaves no file.
// Returns the rows appended.
func (s *Snapshots) AppendRows(dir string, rows func(emit func(records.Record) error) error) (int64, error) {
	held := s.lockWriter()
	defer s.unlockWriter(held)
	schema, err := ReadSchema(s.fs, dir)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	v := s.rowVersionLocked(dir)
	s.mu.Unlock()
	tmp := fmt.Sprintf("%s/_ingest-%05d", dir, v)
	s.fs.Delete(tmp) // debris of a crashed earlier append
	w, err := NewRowWriter(s.fs, tmp, "", schema, 0)
	if err != nil {
		return 0, err
	}
	var n int64
	err = rows(func(r records.Record) error {
		n++
		return w.Append(r)
	})
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err == nil && n > 0 {
		s.mu.Lock()
		if err = s.fs.Rename(tmp, rowPartPath(dir, v)); err == nil {
			s.versions[dir] = v + 1
		}
		s.mu.Unlock()
		if err == nil {
			return n, nil
		}
	}
	s.fs.Delete(tmp)
	return 0, err
}

// VersionMemo memoizes values derived from one version of a table (prune
// hints, size estimates), keeping a table's entries for the newest version
// it has been handed only: the first Put at a newer version drops the older
// ones', a Put at an older version — a query still pinned there — is not
// kept. The zero value is ready to use, from any goroutine.
type VersionMemo[V any] struct {
	mu     sync.Mutex
	tables map[string]*memoTable[V]
}

type memoTable[V any] struct {
	version uint64
	vals    map[string]V
}

// Get returns the value memoized under key for that version of the table.
func (m *VersionMemo[V]) Get(table string, version uint64, key string) (v V, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t := m.tables[table]; t != nil && t.version == version {
		v, ok = t.vals[key]
	}
	return v, ok
}

// Put memoizes v under key for that version of the table.
func (m *VersionMemo[V]) Put(table string, version uint64, key string, v V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if vals := m.valsLocked(table, version); vals != nil {
		vals[key] = v
	}
}

// LoadOrStore returns the value memoized under key for that version of the
// table, memoizing v there first if there is none: callers racing on one
// key all get the same value. A v for an older version than the table's
// newest is returned, not kept.
func (m *VersionMemo[V]) LoadOrStore(table string, version uint64, key string, v V) V {
	m.mu.Lock()
	defer m.mu.Unlock()
	vals := m.valsLocked(table, version)
	if vals == nil {
		return v
	}
	if old, ok := vals[key]; ok {
		return old
	}
	vals[key] = v
	return v
}

// valsLocked returns the values kept for that version of the table,
// dropping an older version's; nil when the memo holds a newer version.
func (m *VersionMemo[V]) valsLocked(table string, version uint64) map[string]V {
	t := m.tables[table]
	switch {
	case t == nil || t.version < version:
		if m.tables == nil {
			m.tables = make(map[string]*memoTable[V])
		}
		t = &memoTable[V]{version: version, vals: make(map[string]V)}
		m.tables[table] = t
	case t.version > version:
		return nil
	}
	return t.vals
}

// Len returns the number of values held.
func (m *VersionMemo[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, t := range m.tables {
		n += len(t.vals)
	}
	return n
}
