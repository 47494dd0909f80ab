package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewClusterProfiles(t *testing.T) {
	for _, cfg := range []Config{ClusterA(), ClusterB(), Testing(3)} {
		c := New(cfg)
		if len(c.Nodes()) != cfg.Workers {
			t.Errorf("%s: %d nodes, want %d", cfg.Name, len(c.Nodes()), cfg.Workers)
		}
		if len(c.Alive()) != cfg.Workers {
			t.Errorf("%s: all nodes should start alive", cfg.Name)
		}
	}
	a := ClusterA()
	if a.Workers != 8 || a.MapSlots != 6 || a.MemoryPerNode != 16<<30 || a.DisksPerNode != 8 {
		t.Errorf("cluster A profile mismatch: %+v", a)
	}
	b := ClusterB()
	if b.Workers != 40 || b.MemoryPerNode != 32<<30 || b.DisksPerNode != 5 {
		t.Errorf("cluster B profile mismatch: %+v", b)
	}
}

func TestNodeLookup(t *testing.T) {
	c := New(Testing(3))
	if c.Node("node-1") == nil || c.Node("node-1").ID() != "node-1" {
		t.Error("Node lookup failed")
	}
	if c.Node("nope") != nil {
		t.Error("expected nil for unknown node")
	}
}

func TestKillRevive(t *testing.T) {
	c := New(Testing(3))
	n := c.Node("node-0")
	if err := n.PutLocal("f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	n.Kill()
	if n.IsAlive() {
		t.Error("node should be dead")
	}
	if len(c.Alive()) != 2 {
		t.Errorf("Alive = %d, want 2", len(c.Alive()))
	}
	if _, ok := n.GetLocal("f"); ok {
		t.Error("dead node must lose local files")
	}
	if err := n.PutLocal("g", nil); !errors.Is(err, ErrNodeDown) {
		t.Errorf("PutLocal on dead node: %v", err)
	}
	if err := n.ChargeDiskRead(10, true); !errors.Is(err, ErrNodeDown) {
		t.Errorf("ChargeDiskRead on dead node: %v", err)
	}
	if err := n.ReserveMemory(1); !errors.Is(err, ErrNodeDown) {
		t.Errorf("ReserveMemory on dead node: %v", err)
	}
	n.Revive()
	if !n.IsAlive() {
		t.Error("Revive failed")
	}
}

func TestMemoryBudget(t *testing.T) {
	cfg := Testing(1)
	cfg.MemoryPerNode = 100
	c := New(cfg)
	n := c.Nodes()[0]
	if err := n.ReserveMemory(60); err != nil {
		t.Fatal(err)
	}
	if err := n.ReserveMemory(50); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("expected OOM, got %v", err)
	}
	if n.MemoryUsed() != 60 {
		t.Errorf("MemoryUsed = %d", n.MemoryUsed())
	}
	n.ReleaseMemory(60)
	if err := n.ReserveMemory(100); err != nil {
		t.Errorf("reserve after release: %v", err)
	}
	n.ReleaseMemory(500) // over-release clamps to zero
	if n.MemoryUsed() != 0 {
		t.Errorf("MemoryUsed after over-release = %d", n.MemoryUsed())
	}
}

func TestLocalStore(t *testing.T) {
	c := New(Testing(1))
	n := c.Nodes()[0]
	if n.HasLocal("a") {
		t.Error("unexpected file")
	}
	if err := n.PutLocal("a", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if data, ok := n.GetLocal("a"); !ok || string(data) != "hello" {
		t.Error("GetLocal failed")
	}
	n.PutLocal("b", nil)
	if got := n.LocalPaths("a"); len(got) != 1 || got[0] != "a" {
		t.Errorf("LocalPaths(a) = %v", got)
	}
	n.DropLocal("a")
	if n.HasLocal("a") {
		t.Error("DropLocal failed")
	}
}

// TestFillLocal: concurrent fills of one missing path run the fill once and
// all see its file; an existing file is left alone; a failed fill is not
// remembered; and a fill that a DropLocal overtakes runs once and stores its
// file (a path names immutable content, so there is nothing newer to read).
func TestFillLocal(t *testing.T) {
	n := New(Testing(1)).Nodes()[0]
	var runs atomic.Int64
	release := make(chan struct{})
	const callers = 12
	var wg sync.WaitGroup
	var filled atomic.Int64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, err := n.FillLocal("f", func() ([]byte, error) {
				runs.Add(1)
				<-release // hold the fill so the other callers pile up behind it
				return []byte("v1"), nil
			})
			if err != nil {
				t.Error(err)
			}
			if ok {
				filled.Add(1)
			}
		}()
	}
	close(release)
	wg.Wait()
	if runs.Load() != 1 || filled.Load() != 1 {
		t.Fatalf("fill ran %d times and %d callers report storing it, want 1 and 1", runs.Load(), filled.Load())
	}
	if ok, err := n.FillLocal("f", func() ([]byte, error) { t.Error("fill ran over an existing file"); return nil, nil }); ok || err != nil {
		t.Fatalf("FillLocal over an existing file = (%v, %v)", ok, err)
	}

	boom := errors.New("master unreadable")
	if _, err := n.FillLocal("g", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if ok, err := n.FillLocal("g", func() ([]byte, error) { return []byte("v"), nil }); !ok || err != nil {
		t.Fatalf("fill after a failed one = (%v, %v)", ok, err)
	}

	fills := 0
	ok, err := n.FillLocal("h", func() ([]byte, error) {
		fills++
		n.DropLocal("h") // the disk lost the path mid-copy
		return []byte("v"), nil
	})
	if got, _ := n.GetLocal("h"); !ok || err != nil || fills != 1 || string(got) != "v" {
		t.Fatalf("fill overtaken by a drop stored %q after %d runs (filled %v, err %v), want one run stored", got, fills, ok, err)
	}

	n.Kill()
	if _, err := n.FillLocal("f", func() ([]byte, error) { return nil, nil }); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("FillLocal on a dead node: %v", err)
	}
}

func TestAccounting(t *testing.T) {
	c := New(Testing(1))
	n := c.Nodes()[0]
	if err := n.ChargeDiskRead(1000, true); err != nil {
		t.Fatal(err)
	}
	if err := n.ChargeDiskWrite(500, false); err != nil {
		t.Fatal(err)
	}
	if err := n.ChargeNet(250); err != nil {
		t.Fatal(err)
	}
	s := n.Stats()
	if s.DiskReadBytes != 1000 || s.DiskWriteBytes != 500 || s.NetBytes != 250 {
		t.Errorf("Stats = %+v", s)
	}
	if s.ModelTime <= 0 {
		t.Error("modeled time should accumulate")
	}
	tot := c.TotalStats()
	if tot.DiskReadBytes != 1000 {
		t.Errorf("TotalStats = %+v", tot)
	}
}

// HDFS reads must be charged more modeled time than raw reads of the same
// size (this is the Table 1 effect).
func TestHDFSEfficiencyCharged(t *testing.T) {
	cfg := Testing(1)
	cfg.HDFSEfficiency = 0.5
	c := New(cfg)
	n := c.Nodes()[0]
	if err := n.ChargeDiskRead(1<<20, false); err != nil {
		t.Fatal(err)
	}
	raw := n.Stats().ModelTime
	if err := n.ChargeDiskRead(1<<20, true); err != nil {
		t.Fatal(err)
	}
	viaHDFS := n.Stats().ModelTime - raw
	if viaHDFS <= raw {
		t.Errorf("HDFS read (%v) should be slower than raw read (%v)", viaHDFS, raw)
	}
}

func TestDiskSemaphoreLimitsConcurrency(t *testing.T) {
	cfg := Testing(1)
	cfg.DisksPerNode = 2
	cfg.TimeScale = 1 // real sleeps
	cfg.DiskBandwidth = 10 << 20
	c := New(cfg)
	n := c.Nodes()[0]

	// Each read of 100 KB at (0.5*10 MB/s) takes ~20 ms modeled = real.
	// With 2 disks and 4 concurrent readers, total should be ~2 rounds.
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := n.ChargeDiskRead(100<<10, true); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	// One stream takes ~20ms; 4 streams over 2 disks ~40ms. Allow slack but
	// require clearly more than one stream's worth.
	if elapsed < 30*time.Millisecond {
		t.Errorf("4 readers over 2 disks finished in %v; contention not modeled", elapsed)
	}
}

func TestChargeOverheadRespectsTimeScale(t *testing.T) {
	cfg := Testing(1)
	cfg.TimeScale = 0 // no sleeping
	c := New(cfg)
	n := c.Nodes()[0]
	start := time.Now()
	n.ChargeOverhead(10 * time.Second)
	if time.Since(start) > time.Second {
		t.Error("TimeScale=0 must not sleep")
	}
	if n.Stats().ModelTime < 10*time.Second {
		t.Error("modeled time must still be accounted")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := New(Config{Workers: 1})
	cfg := c.Config()
	if cfg.MapSlots < 1 || cfg.ReduceSlots < 1 || cfg.DisksPerNode < 1 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if cfg.HDFSEfficiency != 1 {
		t.Errorf("HDFSEfficiency default = %v, want 1", cfg.HDFSEfficiency)
	}
}
