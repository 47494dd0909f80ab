package hdfs

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"clydesdale/internal/cluster"
)

// killOnRead is a ReadFaultInjector that kills the victim node the first
// time it serves a block read, then reports the failure to the namenode —
// the serving replica dying mid-read.
type killOnRead struct {
	c      *cluster.Cluster
	fs     *FileSystem
	victim string
	fired  bool
}

func (k *killOnRead) BeforeBlockRead(nodeID string, blockID int64) error {
	if nodeID == k.victim && !k.fired {
		k.fired = true
		k.c.Node(k.victim).Kill()
		_, _, _ = k.fs.OnNodeFailure(k.victim)
	}
	return nil
}

// TestFailoverWhenServingReplicaKilledMidRead is the regression test for
// the serveBlock failover loop: the replica chosen to serve the read
// dies after selection; the read must move to a surviving replica and
// return the full, correct bytes.
func TestFailoverWhenServingReplicaKilledMidRead(t *testing.T) {
	c := cluster.New(cluster.Testing(5))
	fs := New(c, Options{BlockSize: 64, Replication: 3, Seed: 11})
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := fs.WriteFile("/ft/f", "node-0", data); err != nil {
		t.Fatal(err)
	}

	locs, err := fs.BlockLocations("/ft/f", 0, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	victim := locs[0].Hosts[0]
	// A client with no replica of block 0 reads from the victim first.
	client := ""
	for i := 0; i < 5; i++ {
		id := c.Nodes()[i].ID()
		holds := false
		for _, h := range locs[0].Hosts {
			if h == id {
				holds = true
			}
		}
		if !holds {
			client = id
			break
		}
	}
	if client == "" {
		t.Fatal("every node holds a replica of block 0; cannot pick a remote client")
	}

	fs.SetReadFaultInjector(&killOnRead{c: c, fs: fs, victim: victim})
	got, err := fs.ReadAll("/ft/f", client)
	if err != nil {
		t.Fatalf("read did not fail over: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Error("failover returned wrong bytes")
	}
	if fs.Metrics().Snapshot().Failovers == 0 {
		t.Error("failover not counted")
	}
	locs, _ = fs.BlockLocations("/ft/f", 0, int64(len(data)))
	for _, l := range locs {
		for _, h := range l.Hosts {
			if h == victim {
				t.Errorf("dead node %s still listed as replica", victim)
			}
		}
	}
}

// nullPolicy refuses to place any replicas, forcing re-replication to fail.
type nullPolicy struct{}

func (nullPolicy) ChooseTargets(string, int, int, string, []*cluster.Node, *rand.Rand) []*cluster.Node {
	return nil
}

// TestRereplicationFailuresJoinedAndRetried is the regression test for
// OnNodeFailure error handling: when several blocks fail to re-replicate,
// the returned error must name all of them (not just the last), the
// failures must be counted, and the blocks must heal on the next failure
// event once targets are available again.
func TestRereplicationFailuresJoinedAndRetried(t *testing.T) {
	c := cluster.New(cluster.Testing(5))
	fs := New(c, Options{BlockSize: 32, Replication: 3, Seed: 7})
	data := make([]byte, 100) // 4 blocks, each with a replica on the writer
	for i := range data {
		data[i] = byte(i)
	}
	if err := fs.WriteFile("/rt/f", "node-0", data); err != nil {
		t.Fatal(err)
	}

	fs.SetPlacementPolicy("/rt", nullPolicy{})
	c.Node("node-0").Kill()
	rerep, lost, err := fs.OnNodeFailure("node-0")
	if err == nil {
		t.Fatal("expected re-replication errors with a null placement policy")
	}
	if rerep != 0 || lost != 0 {
		t.Errorf("rereplicated = %d, lost = %d; want 0, 0", rerep, lost)
	}
	if n := strings.Count(err.Error(), "re-replicate block"); n < 4 {
		t.Errorf("error names %d blocks, want all 4 joined: %v", n, err)
	}
	if got := fs.Metrics().Snapshot().RereplicationsFailed; got != 4 {
		t.Errorf("RereplicationsFailed = %d, want 4", got)
	}
	if got := fs.underReplicated(); got != 4 {
		t.Errorf("UnderReplicated = %d, want 4", got)
	}

	// Targets become available again (default policy restored); the next
	// failure event — even of a node holding none of these replicas — must
	// retry and heal the under-replicated blocks.
	fs.SetPlacementPolicy("/rt", nil)
	c.Node("node-1").Kill()
	if _, _, err := fs.OnNodeFailure("node-1"); err != nil {
		t.Fatalf("retry re-replication failed: %v", err)
	}
	if got := fs.underReplicated(); got != 0 {
		t.Errorf("UnderReplicated = %d after retry, want 0", got)
	}
	got, err := fs.ReadAll("/rt/f", "node-2")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("data corrupted across failed + retried re-replication")
	}
}

// TestLostBlockSurfacesReadError: when re-replication could not save a
// block and its last replica dies, readers must get an error — never stale
// or partial bytes presented as success.
func TestLostBlockSurfacesReadError(t *testing.T) {
	c := cluster.New(cluster.Testing(4))
	fs := New(c, Options{BlockSize: 64, Replication: 2, Seed: 13})
	if err := fs.WriteFile("/lb/f", "node-0", bytes.Repeat([]byte{0xEE}, 64)); err != nil {
		t.Fatal(err)
	}
	fs.SetPlacementPolicy("/lb", nullPolicy{}) // no recovery targets

	locs, _ := fs.BlockLocations("/lb/f", 0, 64)
	for _, holder := range locs[0].Hosts {
		c.Node(holder).Kill()
		_, _, _ = fs.OnNodeFailure(holder)
	}
	if fs.lostBlocks() == 0 {
		t.Fatal("block should be lost after every holder died")
	}
	if _, err := fs.ReadAll("/lb/f", "node-3"); err == nil {
		t.Error("read of lost block succeeded")
	} else if !strings.Contains(err.Error(), "lost") {
		t.Errorf("error should say the block is lost, got: %v", err)
	}
}

// TestCorruptReplicaDetectedAndHealed: a corrupted replica must be caught
// by CRC verification, dropped, re-replicated from a pristine copy, and the
// read must succeed with correct bytes.
func TestCorruptReplicaDetectedAndHealed(t *testing.T) {
	c := cluster.New(cluster.Testing(5))
	fs := New(c, Options{BlockSize: 128, Replication: 3, Seed: 17})
	data := make([]byte, 128)
	for i := range data {
		data[i] = byte(255 - i)
	}
	if err := fs.WriteFile("/cr/f", "node-0", data); err != nil {
		t.Fatal(err)
	}
	bad, err := fs.CorruptReplica("/cr/f", 0, "")
	if err != nil {
		t.Fatal(err)
	}

	// The corrupted node reads its own replica first and must detect the
	// damage rather than consume it.
	got, err := fs.ReadAll("/cr/f", bad)
	if err != nil {
		t.Fatalf("read did not fail over from corrupt replica: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("corrupt bytes returned to reader")
	}
	snap := fs.Metrics().Snapshot()
	if snap.CRCFailures != 1 {
		t.Errorf("CRCFailures = %d, want 1", snap.CRCFailures)
	}
	if snap.Failovers == 0 {
		t.Error("corruption detection should count as a failover")
	}
	// The bad replica was dropped and replaced; the node may hold a fresh
	// pristine copy again, but a re-read must stay clean.
	got, err = fs.ReadAll("/cr/f", bad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("second read corrupted")
	}
	if extra := fs.Metrics().Snapshot().CRCFailures; extra != 1 {
		t.Errorf("CRCFailures grew to %d on re-read of healed block", extra)
	}
}
