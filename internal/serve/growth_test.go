package serve

import (
	"context"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/records"
	"clydesdale/internal/ssb"
)

// TestDimRollInsLeaveBoundedState: nothing is told that a table changed, so
// everything keyed by a superseded version has to go away on its own. After
// any number of dimension roll-ins, each followed by queries, a quiesced
// session holds what it held after the first: one node-local copy per
// dimension on every live node, one driver-side scan (the admission estimate
// and the pushdowns) per (dimension, spec), one cached result per query,
// resident hash tables inside the cache budget, and Close returns every
// reserved byte.
func TestDimRollInsLeaveBoundedState(t *testing.T) {
	c := cluster.New(cluster.Testing(3))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 23})
	gen := ssb.NewGenerator(0.002, 42)
	lay, err := ssb.Load(fs, gen, "/ssb", ssb.LoadOptions{SkipRC: true, PartitionRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	cat := lay.Catalog()
	const budget = 1 << 20
	s := New(mr.NewEngine(c, fs, mr.Options{}), cat, Options{CacheBudget: budget})

	var queries []string
	for _, q := range ssb.Queries() {
		if q.Dim(ssb.TableCustomer) != nil {
			queries = append(queries, q.Name)
		}
	}
	type footprint struct{ estimates, results, copies int }
	measure := func() footprint {
		t.Helper()
		for _, name := range queries {
			q, err := ssb.QueryByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Query(context.Background(), q); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		f := footprint{estimates: s.eng.DimScansHeld()}
		s.rcache.mu.Lock()
		f.results = len(s.rcache.entries)
		s.rcache.mu.Unlock()
		// Which node builds which table depends on task placement, so the
		// resident bytes (all a quiesced node has reserved) are held to the
		// budget, not to a number.
		for _, n := range c.Alive() {
			copies := n.LocalPaths("clydesdale/dimcache" + cat.DimDirs[ssb.TableCustomer] + "@")
			if len(copies) != 1 {
				t.Errorf("%s holds customer copies %v, want one", n.ID(), copies)
			}
			f.copies += len(n.LocalPaths("clydesdale/dimcache"))
			if resident := n.MemoryUsed(); resident == 0 || resident > budget {
				t.Errorf("%s holds %d resident table bytes, budget %d", n.ID(), resident, budget)
			}
		}
		return f
	}
	// Duplicates of existing customers: every version of the table builds
	// the same hash tables, so footprints compare exactly.
	rollIn := func() {
		t.Helper()
		if _, err := s.RollIn(ssb.TableCustomer, func(emit func(records.Record) error) error {
			return emit(gen.Customer(0))
		}); err != nil {
			t.Fatal(err)
		}
	}

	rollIn()
	after1 := measure()
	if after1.estimates == 0 || after1.results != len(queries) {
		t.Fatalf("fixture: footprint after one roll-in = %+v", after1)
	}
	const more = 5
	for i := 0; i < more; i++ {
		rollIn()
		if i%2 == 0 {
			measure() // some versions are queried, some never are
		}
	}
	if afterN := measure(); afterN != after1 {
		t.Errorf("footprint after %d roll-ins = %+v, after one = %+v", 1+more, afterN, after1)
	}
	if st := s.Stats(); st.RollIns != 1+more || st.TableInvalidations == 0 || st.ResultInvalidations == 0 {
		t.Errorf("stats = %+v: superseded tables and results were never reclaimed", st)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		if used := n.MemoryUsed(); used != 0 {
			t.Errorf("node %s holds %d bytes after session close", n.ID(), used)
		}
	}
}
