package core_test

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/hive"
	"clydesdale/internal/mr"
	"clydesdale/internal/records"
	"clydesdale/internal/ssb"
)

// keepHashTables is a read fault injector that injects no fault. Before a
// block read it takes its own copy of every Hive mapjoin hash table in the
// namespace it has not kept yet, so the node-local distributed-cache copies
// can be held to the bytes the query wrote after its cleanup has
// deleted the file. The first read of a table is the engine localizing it,
// so the copy is taken before any task sees the table.
type keepHashTables struct {
	fs   *hdfs.FileSystem
	mu   sync.Mutex
	kept map[string][]byte
	err  error
}

func (k *keepHashTables) BeforeBlockRead(string, int64) error {
	// TryLock: the copy's own read comes back through here.
	if !k.mu.TryLock() {
		return nil
	}
	defer k.mu.Unlock()
	for _, path := range k.fs.List("/tmp/hive/") {
		if _, ok := k.kept[path]; ok || !strings.Contains(path, "/hashtable-") {
			continue
		}
		data, err := k.fs.ReadAll(path, "")
		if err != nil {
			k.err = err
			continue
		}
		k.kept[path] = append([]byte(nil), data...)
	}
	return nil
}

// TestReadOnlyViewsSurviveEveryConsumer holds every consumer of whole-file
// HDFS reads to the read-only contract: a one-block read returns bytes that
// all replicas of the block share, so one write into them anywhere would
// corrupt the file for every later reader. After the 13 SSB queries, a
// fact roll-in with compaction and a Hive mapjoin query (whose distributed
// cache keeps the read's bytes on every node), every file in the namespace
// must read back from every node that holds a replica with no CRC failure or
// failover and with the bytes it had, and every node's copy of the mapjoin
// hash table must be the bytes the query wrote.
func TestReadOnlyViewsSurviveEveryConsumer(t *testing.T) {
	ctx := context.Background()
	c := cluster.New(cluster.Testing(3))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 29})
	gen := ssb.NewGenerator(0.001, 42)
	lay, err := ssb.Load(fs, gen, "/ssb", ssb.LoadOptions{PartitionRows: 1000, RCGroupRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	keeper := &keepHashTables{fs: fs, kept: map[string][]byte{}}
	fs.SetReadFaultInjector(keeper)
	before := map[string][]byte{}
	for _, path := range fs.List("/") {
		data, err := fs.ReadAll(path, "")
		if err != nil {
			t.Fatal(err)
		}
		before[path] = append([]byte(nil), data...)
	}

	mre := mr.NewEngine(c, fs, mr.Options{})
	eng := core.New(mre, lay.Catalog(), core.Options{})
	for _, q := range ssb.Queries() {
		if _, _, err := eng.Run(ctx, q); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
	}

	cat := lay.Catalog()
	base := gen.LineorderRows()
	if _, _, err := eng.Snapshots().RollIn(cat.FactDir, 400, func(emit func(records.Record) error) error {
		for i := base; i < base+1200; i++ {
			if err := emit(gen.Lineorder(i)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	res, err := colstore.Compact(eng.Snapshots(), cat.FactDir, colstore.CompactOptions{MinRows: 1000, TargetRows: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows < 1200 {
		t.Fatalf("compaction rewrote %d rows, want the 1200 rolled in at least", res.Rows)
	}

	q21, err := ssb.QueryByName("Q2.1")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := hive.New(mre, lay.RCCatalog(), hive.Options{Strategy: hive.MapJoin}).Execute(ctx, q21); err != nil {
		t.Fatal(err)
	}
	fs.SetReadFaultInjector(nil)
	if keeper.err != nil {
		t.Fatal(keeper.err)
	}

	for _, path := range fs.List("/") {
		info, err := fs.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		locs, err := fs.BlockLocations(path, 0, info.Size)
		if err != nil {
			t.Fatal(err)
		}
		holders := map[string]bool{}
		for _, loc := range locs {
			for _, h := range loc.Hosts {
				holders[h] = true
			}
		}
		for h := range holders {
			data, err := fs.ReadAll(path, h)
			if err != nil {
				t.Fatalf("%s from %s: %v", path, h, err)
			}
			if was, ok := before[path]; ok && !bytes.Equal(data, was) {
				t.Errorf("%s from %s: bytes changed since load", path, h)
			}
		}
	}
	copies := 0
	for _, n := range c.Nodes() {
		for _, key := range n.LocalPaths("dcache/") {
			data, _ := n.GetLocal(key)
			for path, want := range keeper.kept {
				if strings.HasSuffix(key, path) {
					copies++
					if !bytes.Equal(data, want) {
						t.Errorf("%s's distributed-cache copy of %s changed", n.ID(), path)
					}
				}
			}
		}
	}
	if len(keeper.kept) == 0 || copies == 0 {
		t.Fatalf("kept %d hash tables and checked %d node copies: the mapjoin path went unchecked", len(keeper.kept), copies)
	}
	if snap := fs.Metrics().Snapshot(); snap.CRCFailures != 0 || snap.Failovers != 0 {
		t.Errorf("%d CRC failures and %d failovers: a consumer wrote into a read's bytes", snap.CRCFailures, snap.Failovers)
	}
}
