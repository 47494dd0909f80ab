package colstore

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"clydesdale/internal/records"
)

// stageBatch stages n rows starting at base into uncommitted partitions and
// returns the writer (caller publishes or discards).
func stageBatch(t *testing.T, e *env, dir string, base, n int, partRows int64) *CIFWriter {
	t.Helper()
	w, err := StagePartitions(e.fs, dir, partRows)
	if err != nil {
		t.Fatal(err)
	}
	for i := base; i < base+n; i++ {
		if err := w.Append(makeRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return w
}

// retire retires the partitions of the table at dir as a retention does,
// under the writer lock: what ExpireBefore commits, for partitions a test
// picks.
func (s *Snapshots) retire(dir string, parts []string) error {
	s.write.Lock()
	defer s.write.Unlock()
	return s.swap(dir, nil, parts, true)
}

// rowsFrom emits rows [lo, lo+n).
func rowsFrom(lo, n int) func(emit func(records.Record) error) error {
	return func(emit func(records.Record) error) error {
		for i := lo; i < lo+n; i++ {
			if err := emit(makeRow(i)); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestHandlesShareOneRegistry: two handles on one filesystem are one
// registry. A pin taken through one keeps the partitions it reads on disk
// across a roll-in and a retire through the other, until it is released,
// and both handles report the versions either one publishes.
func TestHandlesShareOneRegistry(t *testing.T) {
	e := newEnv(2, 1024)
	if _, err := WriteCIFTable(e.fs, "/cif", tblSchema, 32, genRows(64)); err != nil {
		t.Fatal(err)
	}
	a, b := NewSnapshots(e.fs), NewSnapshots(e.fs)
	snap, err := a.Acquire("/cif")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.RollIn("/cif", 64, rowsFrom(64, 64)); err != nil {
		t.Fatal(err)
	}
	if err := b.retire("/cif", snap.Parts); err != nil {
		t.Fatal(err)
	}
	for _, p := range snap.Parts {
		if !e.fs.Exists(p + "/id.col") {
			t.Errorf("partition %s deleted under a pin taken through the other handle", p)
		}
	}
	if pins, unreaped := b.Held("/cif"); pins != 1 || unreaped != len(snap.Parts) {
		t.Errorf("the retiring handle sees %d pins and %d unreaped partitions, want 1 and %d", pins, unreaped, len(snap.Parts))
	}
	if va, vb := a.Versions("/cif"), b.Versions("/cif"); !slices.Equal(va, vb) || va[0] != 2 {
		t.Errorf("versions %v through one handle, %v through the other; want [2] through both", va, vb)
	}
	if a != b {
		t.Errorf("two handles on one filesystem are two registries")
	}
	if t.Failed() {
		return
	}
	if rows := scanAll(t, e, &CIFInput{Dir: "/cif", Snapshot: snap.Parts}); len(rows) != 64 {
		t.Fatalf("pinned scan read %d rows, want the 64 it pinned", len(rows))
	}
	snap.Release()
	for _, p := range snap.Parts {
		if files := e.fs.List(p + "/"); len(files) != 0 {
			t.Errorf("retired partition %s kept %v after its last pin went", p, files)
		}
	}
}

// TestWritersSerialize: two compactions of one table, and then a roll-in
// and a compaction, run at once, each through its own handle on the
// filesystem. The registry's writer lock lets one through at a time, so no
// small partition is rewritten twice and no two writers stage into one
// partition name: after every trial both writers succeeded and the table
// holds exactly the acknowledged rows, counted and summed by id.
func TestWritersSerialize(t *testing.T) {
	const trials, base, batch = 20, 400, 200
	opts := CompactOptions{MinRows: 100, TargetRows: 400}
	race := func(first, second func() error) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i, w := range []func() error{first, second} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = w()
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
	}
	holds := func(e *env, n int, what string) {
		t.Helper()
		var rows, sum int64
		if err := ScanCIFTable(e.fs, "/cif", "", func(r records.Record) error {
			rows++
			sum += r.Get("id").Int64()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if want := int64(n) * int64(n-1) / 2; rows != int64(n) || sum != want {
			t.Fatalf("after %s: %d rows summing to %d, want the %d acknowledged rows summing to %d", what, rows, sum, n, want)
		}
	}
	compact := func(e *env) func() error {
		return func() error {
			_, err := Compact(NewSnapshots(e.fs), "/cif", opts)
			return err
		}
	}
	for range trials {
		e := newEnv(2, 4096)
		if _, err := WriteCIFTable(e.fs, "/cif", tblSchema, 40, genRows(base)); err != nil {
			t.Fatal(err)
		}
		race(compact(e), compact(e))
		holds(e, base, "two compactions")

		if _, _, err := NewSnapshots(e.fs).RollIn("/cif", 40, rowsFrom(base, batch)); err != nil {
			t.Fatal(err)
		}
		race(func() error {
			_, _, err := NewSnapshots(e.fs).RollIn("/cif", 40, rowsFrom(base+batch, batch))
			return err
		}, compact(e))
		holds(e, base+2*batch, "a roll-in beside a compaction")
	}
}

func TestUncommittedPartitionsInvisible(t *testing.T) {
	e := newEnv(2, 1024)
	if _, err := WriteCIFTable(e.fs, "/cif", tblSchema, 32, genRows(64)); err != nil {
		t.Fatal(err)
	}
	before, err := ListPartitions(e.fs, "/cif")
	if err != nil {
		t.Fatal(err)
	}

	// Staged partitions exist on disk but are invisible until published.
	w := stageBatch(t, e, "/cif", 64, 64, 32)
	if len(w.Pending()) != 2 {
		t.Fatalf("pending = %v", w.Pending())
	}
	for _, p := range w.Pending() {
		if !e.fs.Exists(p + "/id.col") {
			t.Fatalf("staged partition %s has no data", p)
		}
	}
	after, err := ListPartitions(e.fs, "/cif")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("uncommitted partitions visible: %v vs %v", after, before)
	}
	if rows := scanAll(t, e, &CIFInput{Dir: "/cif"}); len(rows) != 64 {
		t.Fatalf("scan saw %d rows before publish, want 64", len(rows))
	}

	// SweepUncommitted treats them as debris from a crashed writer.
	swept := NewSnapshots(e.fs).SweepUncommitted("/cif")
	if len(swept) != 2 {
		t.Fatalf("swept = %v", swept)
	}
	for _, p := range swept {
		if e.fs.Exists(p + "/id.col") {
			t.Fatalf("swept partition %s still on disk", p)
		}
	}
	if got, _ := ListPartitions(e.fs, "/cif"); len(got) != len(before) {
		t.Fatalf("partitions after sweep = %v", got)
	}
}

func TestListPartitionsNumericOrder(t *testing.T) {
	e := newEnv(2, 1024)
	// Build the listing shape directly: a table whose partition indexes
	// cross the five-digit boundary where lexical order breaks ("p-100000" <
	// "p-99999" byte-wise).
	for _, i := range []int{100001, 7, 99999, 100000, 42} {
		pdir := fmt.Sprintf("/cif/p-%05d", i)
		if err := e.fs.WriteFile(pdir+"/id.col", "", []byte{0}); err != nil {
			t.Fatal(err)
		}
		if err := commitPartition(e.fs, pdir); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ListPartitions(e.fs, "/cif")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/cif/p-00007", "/cif/p-00042", "/cif/p-99999", "/cif/p-100000", "/cif/p-100001"}
	if len(got) != len(want) {
		t.Fatalf("partitions = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("partitions = %v, want %v", got, want)
		}
	}
}

func TestAppendNumberingSkipsRetiredGaps(t *testing.T) {
	e := newEnv(2, 1024)
	if _, err := WriteCIFTable(e.fs, "/cif", tblSchema, 32, genRows(96)); err != nil {
		t.Fatal(err)
	}
	reg := NewSnapshots(e.fs)
	// Retire the highest partition while a snapshot pins it: the directory
	// lingers until the pin drains, and the next writer must number past
	// it — reusing p-00002 would overwrite files the snapshot still reads.
	snap, err := reg.Acquire("/cif")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if err := reg.retire("/cif", []string{"/cif/p-00002"}); err != nil {
		t.Fatal(err)
	}
	w, err := AppendPartitions(e.fs, "/cif", 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(makeRow(96)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	parts, _ := ListPartitions(e.fs, "/cif")
	last := parts[len(parts)-1]
	if last != "/cif/p-00003" {
		t.Fatalf("new partition = %s, want /cif/p-00003 (index after the retired-but-pinned p-00002)", last)
	}
}

func TestRollInAtomicVisibilityAndFailure(t *testing.T) {
	e := newEnv(2, 1024)
	if _, err := WriteCIFTable(e.fs, "/cif", tblSchema, 32, genRows(64)); err != nil {
		t.Fatal(err)
	}
	reg := NewSnapshots(e.fs)

	// A failing roll-in leaves nothing: no visible partitions, no debris.
	boom := errors.New("boom")
	_, _, err := reg.RollIn("/cif", 32, func(emit func(r records.Record) error) error {
		for i := 64; i < 128; i++ {
			if err := emit(makeRow(i)); err != nil {
				return err
			}
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("roll-in error = %v", err)
	}
	if parts, _ := ListPartitions(e.fs, "/cif"); len(parts) != 2 {
		t.Fatalf("failed roll-in changed visibility: %v", parts)
	}
	if swept := reg.SweepUncommitted("/cif"); len(swept) != 0 {
		t.Fatalf("failed roll-in left debris: %v", swept)
	}

	// A successful roll-in publishes the whole batch.
	n, pub, err := reg.RollIn("/cif", 32, func(emit func(r records.Record) error) error {
		for i := 64; i < 128; i++ {
			if err := emit(makeRow(i)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 64 || len(pub) != 2 {
		t.Fatalf("roll-in = %d rows, %v", n, pub)
	}
	if rows := scanAll(t, e, &CIFInput{Dir: "/cif"}); len(rows) != 128 {
		t.Fatalf("after roll-in: %d rows", len(rows))
	}
}

func TestSnapshotPinsPreSwapState(t *testing.T) {
	e := newEnv(2, 1024)
	if _, err := WriteCIFTable(e.fs, "/cif", tblSchema, 32, genRows(64)); err != nil {
		t.Fatal(err)
	}
	reg := NewSnapshots(e.fs)
	snap, err := reg.Acquire("/cif")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Parts) != 2 {
		t.Fatalf("snapshot parts = %v", snap.Parts)
	}

	// Roll in a batch, then retire the snapshot's partitions (compaction
	// shape). The pinned snapshot keeps reading the old files.
	if _, _, err := reg.RollIn("/cif", 64, func(emit func(r records.Record) error) error {
		for i := 0; i < 64; i++ {
			if err := emit(makeRow(i)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.retire("/cif", snap.Parts); err != nil {
		t.Fatal(err)
	}
	for _, p := range snap.Parts {
		if !e.fs.Exists(p + "/id.col") {
			t.Fatalf("pinned partition %s deleted under the snapshot", p)
		}
	}
	// The frozen list still scans: exactly the pre-swap 64 rows.
	rows := scanAll(t, e, &CIFInput{Dir: "/cif", Snapshot: snap.Parts})
	if len(rows) != 64 {
		t.Fatalf("snapshot scan = %d rows, want 64", len(rows))
	}
	// A fresh listing sees only the new batch.
	if live, _ := ListPartitions(e.fs, "/cif"); len(live) != 1 {
		t.Fatalf("live partitions = %v", live)
	}

	// Release drains the pin; the retired files are reclaimed.
	snap.Release()
	for _, p := range snap.Parts {
		if e.fs.Exists(p + "/id.col") {
			t.Fatalf("retired partition %s not reclaimed after release", p)
		}
	}
	snap.Release() // idempotent
}

// TestSweepSparesPinnedRetirees: a retired partition loses its commit
// marker at once but keeps its files while a snapshot reads it, so on disk
// it looks like a crashed writer's debris. The sweep tells the two apart:
// after a compaction retires every partition a pinned snapshot reads, a
// sweep deletes nothing and the pin still scans every row; staged debris
// beside them is still swept.
func TestSweepSparesPinnedRetirees(t *testing.T) {
	e := newEnv(2, 1024)
	if _, err := WriteCIFTable(e.fs, "/cif", tblSchema, 16, genRows(64)); err != nil {
		t.Fatal(err)
	}
	reg := NewSnapshots(e.fs)
	snap, err := reg.Acquire("/cif")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	res, err := Compact(reg, "/cif", CompactOptions{MinRows: 32, TargetRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Retired) != len(snap.Parts) {
		t.Fatalf("compaction retired %v, the snapshot reads %v", res.Retired, snap.Parts)
	}
	if swept := reg.SweepUncommitted("/cif"); len(swept) != 0 {
		t.Fatalf("sweep deleted partitions a pinned snapshot reads: %v", swept)
	}
	if rows := scanAll(t, e, &CIFInput{Dir: "/cif", Snapshot: snap.Parts}); len(rows) != 64 {
		t.Fatalf("pinned snapshot scans %d rows after the sweep, want 64", len(rows))
	}
	w := stageBatch(t, e, "/cif", 64, 16, 16)
	if swept := reg.SweepUncommitted("/cif"); !slices.Equal(swept, w.Pending()) {
		t.Fatalf("swept %v, the staged debris is %v", swept, w.Pending())
	}
}

func TestCompactRewritesSmallPartitions(t *testing.T) {
	e := newEnv(2, 4096)
	const n = 96
	if _, err := WriteCIFTable(e.fs, "/cif", tblSchema, 8, func(emit func(r records.Record) error) error {
		// Descending ids: arrival order is anti-clustered, so compaction's
		// re-sort is observable in the zone maps.
		for i := n - 1; i >= 0; i-- {
			if err := emit(makeRow(i)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	reg := NewSnapshots(e.fs)
	res, err := Compact(reg, "/cif", CompactOptions{MinRows: 16, TargetRows: 48, ClusterBy: "id"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != n || len(res.Retired) != 12 || len(res.Published) != 2 {
		t.Fatalf("compact = %+v", res)
	}
	parts, _ := ListPartitions(e.fs, "/cif")
	if len(parts) != 2 {
		t.Fatalf("partitions after compact = %v", parts)
	}
	// Row multiset unchanged, and the rewrite is clustered: fresh zone maps
	// on id must not overlap across the new partitions.
	rows := scanAll(t, e, &CIFInput{Dir: "/cif"})
	if len(rows) != n {
		t.Fatalf("after compact: %d rows", len(rows))
	}
	byID := sortByID(rows)
	for i := 0; i < n; i++ {
		if byID[int64(i)].Compare(makeRow(i)) != 0 {
			t.Fatalf("row %d corrupted by compaction: %v", i, byID[int64(i)])
		}
	}
	var prevMax int64 = -1
	for _, p := range parts {
		ps, err := ReadPartitionStats(e.fs, p)
		if err != nil || ps == nil {
			t.Fatalf("compacted partition %s has no stats: %v", p, err)
		}
		var lo, hi int64
		for i := range ps.Cols {
			if ps.Cols[i].Name == "id" {
				lo, hi = ps.Cols[i].Min.Int64(), ps.Cols[i].Max.Int64()
			}
		}
		if lo <= prevMax {
			t.Fatalf("partition %s zone map [%d,%d] overlaps previous max %d", p, lo, hi, prevMax)
		}
		prevMax = hi
	}

	// A second pass finds nothing small: compaction is quiescent.
	res, err = Compact(reg, "/cif", CompactOptions{MinRows: 16, TargetRows: 48})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Retired) != 0 {
		t.Fatalf("second compact pass rewrote %v", res.Retired)
	}
}

func TestExpireBeforeRetiresOnlyProvablyOld(t *testing.T) {
	e := newEnv(2, 4096)
	// Three partitions of 32 ids each: [0,31], [32,63], [64,95].
	if _, err := WriteCIFTable(e.fs, "/cif", tblSchema, 32, genRows(96)); err != nil {
		t.Fatal(err)
	}
	reg := NewSnapshots(e.fs)

	// Cutoff inside the second partition: only the first is provably old.
	retired, err := ExpireBefore(reg, "/cif", "id", 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(retired) != 1 || retired[0] != "/cif/p-00000" {
		t.Fatalf("retired = %v", retired)
	}
	rows := scanAll(t, e, &CIFInput{Dir: "/cif"})
	if len(rows) != 64 {
		t.Fatalf("after retention: %d rows, want 64 (straddling partition kept)", len(rows))
	}

	// Cutoff below everything: nothing to do.
	retired, err = ExpireBefore(reg, "/cif", "id", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(retired) != 0 {
		t.Fatalf("no-op retention retired %v", retired)
	}
}

// TestTableVersions pins what a version is and when it moves. A row table's
// version is its count of part files and every past version stays readable
// as that many files; the fact table's content version moves on a publish
// and a retirement, not on a compaction's swap; an empty or failed batch
// moves nothing and leaves no file; Acquire pins all of it at once; Bump
// re-derives a version after an external writer.
func TestTableVersions(t *testing.T) {
	e := newEnv(2, 1024)
	if _, err := WriteCIFTable(e.fs, "/fact", tblSchema, 32, genRows(64)); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteRowTable(e.fs, "/dim", tblSchema, genRows(10)); err != nil {
		t.Fatal(err)
	}
	reg := NewSnapshots(e.fs)
	want := func(fact, dim uint64) {
		t.Helper()
		if got := reg.Versions("/fact", "/dim"); got[0] != fact || got[1] != dim {
			t.Fatalf("versions = fact@%d dim@%d, want fact@%d dim@%d", got[0], got[1], fact, dim)
		}
	}
	rows := func(lo, n int) func(emit func(records.Record) error) error {
		return func(emit func(records.Record) error) error {
			for i := lo; i < lo+n; i++ {
				if err := emit(makeRow(i)); err != nil {
					return err
				}
			}
			return nil
		}
	}
	countAt := func(version uint64) int {
		t.Helper()
		img, err := EncodeRowTable(e.fs, "/dim", version, "")
		if err != nil {
			t.Fatal(err)
		}
		set, err := OpenColumnSet(img, tblSchema)
		if err != nil {
			t.Fatal(err)
		}
		return set.Rows()
	}
	want(0, 1)

	// Empty and failed batches: no version, no file.
	files := e.fs.List("/")
	if n, err := reg.AppendRows("/dim", rows(0, 0)); n != 0 || err != nil {
		t.Fatalf("empty append = (%d, %v)", n, err)
	}
	if n, _, err := reg.RollIn("/fact", 32, rows(0, 0)); n != 0 || err != nil {
		t.Fatalf("empty roll-in = (%d, %v)", n, err)
	}
	boom := errors.New("source failed")
	if _, err := reg.AppendRows("/dim", func(emit func(records.Record) error) error {
		emit(makeRow(99))
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("failed append: %v", err)
	}
	if got := e.fs.List("/"); fmt.Sprint(got) != fmt.Sprint(files) {
		t.Fatalf("empty and failed batches left files:\n%v\nwas\n%v", got, files)
	}
	want(0, 1)

	// A pin taken now keeps reading version 1 whatever lands afterwards.
	pin, err := reg.Acquire("/fact", "/dim")
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Release()
	if n, err := reg.AppendRows("/dim", rows(10, 5)); n != 5 || err != nil {
		t.Fatalf("append = (%d, %v)", n, err)
	}
	if n, parts, err := reg.RollIn("/fact", 32, rows(64, 40)); n != 40 || len(parts) != 2 || err != nil {
		t.Fatalf("roll-in = (%d, %v, %v)", n, parts, err)
	}
	want(1, 2)
	if pin.Versions[0] != 0 || pin.Versions[1] != 1 || len(pin.Parts) != 2 {
		t.Fatalf("pin moved: fact@%d (%d partitions) dim@%d", pin.Versions[0], len(pin.Parts), pin.Versions[1])
	}
	if got := [2]int{countAt(1), countAt(2)}; got != [2]int{10, 15} {
		t.Fatalf("dim@1 and dim@2 hold %v rows, want [10 15]", got)
	}

	// Compaction keeps the content version; retention moves it.
	if res, err := Compact(reg, "/fact", CompactOptions{MinRows: 33, TargetRows: 64}); err != nil || len(res.Retired) == 0 {
		t.Fatalf("compaction = %+v, %v", res, err)
	}
	want(1, 2)
	parts, err := ListPartitions(e.fs, "/fact")
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.retire("/fact", parts[:1]); err != nil {
		t.Fatal(err)
	}
	want(2, 2)

	// An external writer's part file counts once the registry is told.
	w, err := NewRowWriter(e.fs, "/dim/part-00002", "", tblSchema, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(makeRow(15)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want(2, 2)
	reg.Bump("/dim")
	reg.Bump("/fact")
	want(3, 3)
	if got := countAt(3); got != 16 {
		t.Fatalf("dim@3 holds %d rows, want 16", got)
	}
}

// TestVersionMemo: a memo keeps a table's newest version only, whatever the
// order versions are put in, and tables do not disturb each other.
func TestVersionMemo(t *testing.T) {
	var m VersionMemo[int]
	if _, ok := m.Get("a", 1, "k"); ok {
		t.Fatal("hit in an empty memo")
	}
	m.Put("a", 1, "k", 10)
	m.Put("a", 1, "l", 11)
	m.Put("b", 7, "k", 70)
	if v, ok := m.Get("a", 1, "k"); !ok || v != 10 || m.Len() != 3 {
		t.Fatalf("a@1/k = (%d, %v), %d entries", v, ok, m.Len())
	}
	m.Put("a", 2, "k", 20) // supersedes both a@1 entries
	if _, ok := m.Get("a", 1, "k"); ok || m.Len() != 2 {
		t.Fatalf("a@1 survived a@2: %d entries", m.Len())
	}
	m.Put("a", 1, "k", 10) // a query still pinned at 1: not kept
	if v, ok := m.Get("a", 2, "k"); !ok || v != 20 || m.Len() != 2 {
		t.Fatalf("a@2/k = (%d, %v), %d entries", v, ok, m.Len())
	}
	if v, ok := m.Get("b", 7, "k"); !ok || v != 70 {
		t.Fatalf("b@7/k = (%d, %v)", v, ok)
	}
}
