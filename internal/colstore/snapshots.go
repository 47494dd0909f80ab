package colstore

import (
	"fmt"
	"slices"
	"sync"

	"clydesdale/internal/hdfs"
	"clydesdale/internal/records"
)

// Snapshots is the table-visibility registry that makes roll-in, compaction
// and retention safe to run while queries execute, and the one place that
// knows table versions. A filesystem has one (NewSnapshots). It owns four
// things:
//
//   - Table versions. A row table (a dimension) is append-only: its version
//     is the number of part files published into it, so any past version is
//     still readable as a file prefix (EncodeRowTable). A partitioned table
//     (the fact) has a content version that moves on whenever its row
//     multiset changes: when a roll-in publishes or a retention retires, not
//     when a compaction exchanges partitions.
//   - Pinned snapshots. A query acquires its fact partition list and the
//     version of every row table it joins exactly once, at plan time, under
//     one hold of the mutex; every pass reads that frozen vector, so the
//     query sees one state of every table end to end.
//   - Atomic visibility swaps. Every publish and retirement happens under
//     the mutex Acquire takes, so a snapshot observes a table strictly
//     before or strictly after a batch — never a half-published roll-in or
//     a half-retired compaction.
//   - The writer lock. RollIn, AppendRows, Compact, ExpireBefore,
//     SweepUncommitted and Bump hold it from staging through the publish,
//     so one writer at a time changes a filesystem's tables. Queries
//     (Acquire, Versions, Release) never take it. A rows callback must not
//     write through the registry: it would wait on its own lock.
//
// Retired partitions are unlinked from visibility immediately (their commit
// marker is removed) but physically deleted only once no pinned snapshot
// still reads them; until then an in-flight query keeps scanning the
// pre-swap state it pinned.
type Snapshots struct {
	fs    *hdfs.FileSystem
	write sync.Mutex // the writer lock, taken before mu

	mu       sync.Mutex
	live     map[string]map[*Snapshot]bool // dir → pinned snapshots
	doomed   map[string][]string           // dir → retired, delete when unpinned
	versions map[string]uint64             // dir → content version or part files published
}

// NewSnapshots returns the filesystem's one registry, creating it on the
// first call: every handle on a filesystem is the same pointer.
func NewSnapshots(fs *hdfs.FileSystem) *Snapshots {
	return fs.Tables(func() any {
		return &Snapshots{
			fs:       fs,
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
// compaction, is observed fully or not at all.
func (s *Snapshots) Acquire(dir string, rowTables ...string) (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	parts, err := ListPartitions(s.fs, dir)
	if err != nil {
		return nil, err
	}
	sn := &Snapshot{Dir: dir, Parts: parts, Versions: s.versionsLocked(dir, rowTables), reg: s}
	if s.live[dir] == nil {
		s.live[dir] = make(map[*Snapshot]bool)
	}
	s.live[dir][sn] = true
	return sn, nil
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
// partitioned table's content version moves on by one.
func (s *Snapshots) Bump(dir string) {
	s.write.Lock()
	defer s.write.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if v := RowTableVersion(s.fs, dir); v > 0 {
		s.versions[dir] = v
	} else {
		s.versions[dir]++
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
// newContent gives the table a new content version (roll-in, retention); a
// compaction's exchange keeps it. Marker writes can fail (no alive
// datanodes): then nothing was retired and the published prefix is
// committed, so a retry is idempotent. Callers hold the writer lock.
func (s *Snapshots) swap(dir string, publish, retire []string, newContent bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range publish {
		if err := commitPartition(s.fs, p); err != nil {
			return err
		}
	}
	for _, p := range retire {
		s.fs.Delete(p + "/" + CommitMarkerName)
		s.doomed[dir] = append(s.doomed[dir], p)
	}
	s.reapLocked(dir)
	if newContent && len(publish)+len(retire) > 0 {
		s.versions[dir]++
	}
	return nil
}

// SweepUncommitted removes the partition directories of the table at dir
// that never committed — the debris of writers that crashed between phases
// — and returns them. A retired partition a pinned snapshot still reads has
// lost its marker too, but it is not debris: the sweep skips it, under the
// mutex that retires and reaps. It holds the writer lock, so no partition it
// finds uncommitted is one a writer is still staging.
func (s *Snapshots) SweepUncommitted(dir string) []string {
	s.write.Lock()
	defer s.write.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	all, committed := scanPartitionDirs(s.fs, dir)
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
	s.write.Lock()
	defer s.write.Unlock()
	w, err := StagePartitions(s.fs, dir, partitionRows)
	if err != nil {
		return 0, nil, err
	}
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

// AppendRows rolls a batch of rows into the row table at dir as its next
// part file and version: rows stream into a "_"-prefixed name no reader
// opens, which is renamed into place, and counted, under the registry mutex
// once its footer is written. The name is picked and the file renamed under
// one hold of the writer lock. A snapshot pins the table before the batch or
// after it; a failed or empty batch publishes nothing and leaves no file.
// Returns the rows appended.
func (s *Snapshots) AppendRows(dir string, rows func(emit func(records.Record) error) error) (int64, error) {
	s.write.Lock()
	defer s.write.Unlock()
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
	t := m.tables[table]
	switch {
	case t == nil || t.version < version:
		if m.tables == nil {
			m.tables = make(map[string]*memoTable[V])
		}
		t = &memoTable[V]{version: version, vals: make(map[string]V)}
		m.tables[table] = t
	case t.version > version:
		return
	}
	t.vals[key] = v
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
