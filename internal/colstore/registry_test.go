package colstore

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"clydesdale/internal/hdfs"
	"clydesdale/internal/obs"
	"clydesdale/internal/records"
)

// TestRegistryListMatchesFilesystem drives a table through a seeded mix of
// every writer — roll-ins, compactions, retentions, sweeps of debris, an
// outside AppendPartitions followed by Bump, debris written behind the
// registry's back at the very name it would hand out next — while a
// snapshot now and then pins partitions that get retired under it. After
// every step the list a snapshot copies from the registry must be the one
// the filesystem's markers give, and no partition a step wrote may bear a
// name any partition directory ever had.
func TestRegistryListMatchesFilesystem(t *testing.T) {
	e := newEnv(2, 1<<20)
	const dir = "/cif"
	if _, err := WriteCIFTable(e.fs, dir, tblSchema, 64, genRows(200)); err != nil {
		t.Fatal(err)
	}
	reg := NewSnapshots(e.fs)
	rng := rand.New(rand.NewSource(46))
	ever := map[string]bool{}
	note := func() {
		all, _ := scanPartitionDirs(e.fs, dir)
		for _, p := range all {
			ever[p] = true
		}
	}
	note()
	next := 200 // the next row id
	var pin *Snapshot
	defer func() { pin.Release() }()
	var debris []string // left behind the registry's back, for the next sweep
	sawPinnedRetiree := false

	for step := 0; step < 120; step++ {
		var wrote []string
		var what string
		switch k := rng.Intn(8); k {
		case 0, 1, 2:
			n := 1 + rng.Intn(150)
			what = fmt.Sprintf("roll-in of %d rows", n)
			_, parts, err := reg.RollIn(dir, int64(16+rng.Intn(64)), rowsFrom(next, n))
			if err != nil {
				t.Fatalf("step %d, %s: %v", step, what, err)
			}
			next += n
			wrote = parts
		case 3:
			what = "compaction"
			res, err := Compact(reg, dir, CompactOptions{MinRows: 60, TargetRows: 128, ClusterBy: "name"})
			if err != nil {
				t.Fatalf("step %d, %s: %v", step, what, err)
			}
			wrote = res.Published
		case 4:
			cutoff := int64(rng.Intn(next))
			what = fmt.Sprintf("retention below id %d", cutoff)
			if _, err := ExpireBefore(reg, dir, "id", cutoff); err != nil {
				t.Fatalf("step %d, %s: %v", step, what, err)
			}
		case 5:
			what = "debris and a sweep"
			w := stageBatch(t, e, dir, next, 10, 8)
			wrote = w.Pending()
			checkFresh(t, step, what, wrote, ever)
			note()
			swept := reg.SweepUncommitted(dir)
			slices.Sort(swept)
			if want := slices.Sorted(slices.Values(append(wrote, debris...))); !slices.Equal(swept, want) {
				t.Fatalf("step %d: swept %v, want the debris %v", step, swept, want)
			}
			wrote, debris = nil, nil
		case 6:
			what = "an outside append and a Bump"
			w, err := AppendPartitions(e.fs, dir, 20)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				if err := w.Append(makeRow(next + i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			next += 50
			all, _ := scanPartitionDirs(e.fs, dir)
			for _, p := range all {
				if !ever[p] {
					wrote = append(wrote, p)
				}
			}
			reg.Bump(dir)
		case 7:
			// A crashed writer outside the registry left a partition at
			// the name the registry hands out next.
			all, _ := scanPartitionDirs(e.fs, dir)
			top := -1
			for _, p := range all {
				n, _ := partitionIndex(p)
				top = max(top, n)
			}
			reg.mu.Lock()
			idx := max(top+1, reg.lists[dir].next)
			reg.mu.Unlock()
			pdir := fmt.Sprintf("%s/p-%05d", dir, idx)
			what = "debris behind the registry at " + pdir
			if err := e.fs.WriteFiles("", []hdfs.File{{Path: pdir + "/id.col", Data: []byte("x")}, {Path: pdir + "/" + StatsFileName, Data: []byte("x")}}); err != nil {
				t.Fatal(err)
			}
			debris = append(debris, pdir)
			note()
			_, parts, err := reg.RollIn(dir, 32, rowsFrom(next, 40))
			if err != nil {
				t.Fatalf("step %d, roll-in after %s: %v", step, what, err)
			}
			next += 40
			wrote = parts
		}
		checkFresh(t, step, what, wrote, ever)
		note()
		if _, unreaped := reg.Held(dir); unreaped > 0 {
			sawPinnedRetiree = true
		}

		// Now and then pin the table, so that later retirements leave
		// partitions on disk that no list may show.
		if rng.Intn(4) == 0 {
			pin.Release()
			pin = nil
			if rng.Intn(2) == 0 {
				var err error
				if pin, err = reg.Acquire(dir); err != nil {
					t.Fatal(err)
				}
			}
		}

		listed, _ := ListPartitions(e.fs, dir)
		sn, err := reg.Acquire(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sn.Parts, listed) {
			t.Fatalf("step %d, after %s: the registry lists\n%v\nthe filesystem\n%v", step, what, sn.Parts, listed)
		}
		sn.Release()
	}
	if !sawPinnedRetiree {
		t.Fatal("no retired partition outlived its retirement under a pin: the sequence misses the case")
	}
}

// checkFresh fails the test if a step wrote a partition under a name some
// partition directory had before.
func checkFresh(t *testing.T, step int, what string, wrote []string, ever map[string]bool) {
	t.Helper()
	for _, p := range wrote {
		if ever[p] {
			t.Fatalf("step %d, %s: wrote %s, a name already taken", step, what, p)
		}
	}
}

// TestMalformedRollInFails: a roll-in row with a null, a value of a kind
// its column does not take, or the wrong number of values fails the
// roll-in with an error naming the column. Nothing is published, no staged
// partition is left behind (the rows before it had filled one), and the
// writer lock is free: the next roll-in succeeds.
func TestMalformedRollInFails(t *testing.T) {
	e := newEnv(2, 1<<20)
	const dir = "/cif"
	if _, err := WriteCIFTable(e.fs, dir, tblSchema, 32, genRows(64)); err != nil {
		t.Fatal(err)
	}
	reg := NewSnapshots(e.fs)
	for _, c := range []struct {
		name string
		row  records.Record
		want string
	}{
		{"null", records.Make(tblSchema, records.Null, records.Str("x"), records.Float(1)), "column id"},
		{"float-in-int", records.Make(tblSchema, records.Float(1.5), records.Str("x"), records.Float(1)), "column id"},
		{"int-in-string", records.Make(tblSchema, records.Int(1), records.Int(2), records.Float(1)), "column name"},
		{"arity", records.Make(records.NewSchema(records.F("id", records.KindInt64)), records.Int(1)), "1 values for 3 columns"},
	} {
		before, _ := ListPartitions(e.fs, dir)
		version := reg.Versions(dir)[0]
		_, _, err := reg.RollIn(dir, 8, func(emit func(records.Record) error) error {
			for i := 0; i < 20; i++ { // two partitions staged before the bad row
				if err := emit(makeRow(1000 + i)); err != nil {
					return err
				}
			}
			return emit(c.row)
		})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: roll-in error %v, want one naming %q", c.name, err, c.want)
		}
		after, _ := ListPartitions(e.fs, dir)
		all, _ := scanPartitionDirs(e.fs, dir)
		if !slices.Equal(before, after) || len(all) != len(after) || reg.Versions(dir)[0] != version {
			t.Fatalf("%s: the failed roll-in left %d partitions listed (was %d), %d on disk, version %d (was %d)",
				c.name, len(after), len(before), len(all), reg.Versions(dir)[0], version)
		}
		if n, _, err := reg.RollIn(dir, 8, rowsFrom(2000, 3)); err != nil || n != 3 {
			t.Fatalf("%s: the roll-in after it: %d rows, %v", c.name, n, err)
		}
	}
}

// TestCompactRefusesNulls: a null in a plain column stream is a value a
// column vector cannot carry, so the compaction that reads one fails
// rather than rewrite it as a zero, and stages nothing.
func TestCompactRefusesNulls(t *testing.T) {
	e := newEnv(2, 1<<20)
	const dir = "/nullcif"
	schema := records.NewSchema(records.F("id", records.KindInt64), records.F("score", records.KindFloat64))
	if _, err := WriteCIFTable(e.fs, dir, schema, 8, func(emit func(records.Record) error) error {
		for i := 0; i < 16; i++ {
			if err := emit(records.Make(schema, records.Int(int64(i)), records.Float(float64(i)))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Rewrite p-00001's score column as a foreign writer might: a plain
	// stream with a null in it.
	var payload []byte
	for i := 0; i < 8; i++ {
		v := records.Float(float64(i))
		if i == 3 {
			v = records.Null
		}
		payload = records.AppendValue(payload, v)
	}
	path := columnPath(dir+"/p-00001", "score")
	e.fs.Delete(path)
	if err := e.fs.WriteFile(path, "", columnFile(8, EncPlain, payload)); err != nil {
		t.Fatal(err)
	}
	reg := NewSnapshots(e.fs)
	before, _ := scanPartitionDirs(e.fs, dir)
	_, err := Compact(reg, dir, CompactOptions{MinRows: 100, TargetRows: 100})
	if err == nil || !strings.Contains(err.Error(), "nulls in column score") {
		t.Fatalf("compaction over a null: %v, want an error naming the column", err)
	}
	if after, _ := scanPartitionDirs(e.fs, dir); len(after) != len(before) {
		t.Fatalf("the failed compaction left %d partition directories, was %d", len(after), len(before))
	}
}

// TestWriterLockCounters: every holder of the writer lock is counted once,
// and observing one obs registry twice (two sessions over one engine)
// registers the totals once, so they are not added up.
func TestWriterLockCounters(t *testing.T) {
	e := newEnv(2, 1<<20)
	if _, err := WriteCIFTable(e.fs, "/cif", tblSchema, 32, genRows(64)); err != nil {
		t.Fatal(err)
	}
	reg := NewSnapshots(e.fs)
	r := obs.NewRegistry()
	reg.Observe(r, "w.")
	reg.Observe(r, "w.")
	for i := 0; i < 3; i++ {
		if _, _, err := reg.RollIn("/cif", 32, rowsFrom(100+10*i, 10)); err != nil {
			t.Fatal(err)
		}
	}
	reg.Bump("/cif")
	if _, err := ExpireBefore(reg, "/cif", "id", 0); err != nil {
		t.Fatal(err)
	}
	c := r.Snapshot().Counters
	if c["w.writer_holds"] != 5 || c["w.writer_hold_ns"] <= 0 || c["w.writer_wait_ns"] < 0 {
		t.Fatalf("writer lock counters %d holds, %d ns held, %d ns waited; want 5 holds", c["w.writer_holds"], c["w.writer_hold_ns"], c["w.writer_wait_ns"])
	}
}

// TestRollInsShareOneStagingWriter: consecutive roll-ins into a table stage
// with one writer, whose row block and encode scratch the registry keeps
// for the table. A failed roll-in leaves nothing of its batch to the next,
// and forgetting the table drops the writer.
func TestRollInsShareOneStagingWriter(t *testing.T) {
	e := newEnv(2, 1<<20)
	const dir = "/cif"
	if _, err := WriteCIFTable(e.fs, dir, tblSchema, 32, genRows(64)); err != nil {
		t.Fatal(err)
	}
	reg := NewSnapshots(e.fs)
	staging := func() *CIFWriter {
		reg.mu.Lock()
		defer reg.mu.Unlock()
		if l := reg.lists[dir]; l != nil {
			return l.staging
		}
		return nil
	}
	if _, _, err := reg.RollIn(dir, 8, rowsFrom(64, 10)); err != nil {
		t.Fatal(err)
	}
	w := staging()
	if w == nil {
		t.Fatal("no staging writer kept after a roll-in")
	}
	stop := errors.New("stop")
	if _, _, err := reg.RollIn(dir, 8, func(emit func(records.Record) error) error {
		if err := rowsFrom(1000, 12)(emit); err != nil { // one partition staged, four rows buffered
			return err
		}
		return stop
	}); !errors.Is(err, stop) {
		t.Fatalf("failed roll-in: %v", err)
	}
	if n, _, err := reg.RollIn(dir, 8, rowsFrom(74, 3)); err != nil || n != 3 {
		t.Fatalf("roll-in after the failed one: %d rows, %v", n, err)
	}
	if staging() != w {
		t.Error("a roll-in made a staging writer of its own")
	}
	tableHolds(t, e, 0, 77, 5)
	reg.forget(dir) // what a new table of the name does (NewCIFWriter)
	if staging() != nil {
		t.Error("forget kept the table's staging writer")
	}
}
