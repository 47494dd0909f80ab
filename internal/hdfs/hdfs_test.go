package hdfs

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"clydesdale/internal/cluster"
)

func newTestFS(t *testing.T, workers int, blockSize int64) *FileSystem {
	t.Helper()
	c := cluster.New(cluster.Testing(workers))
	return New(c, Options{BlockSize: blockSize, Seed: 42})
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := newTestFS(t, 4, 64)
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i % 251)
	}
	if err := fs.WriteFile("/t/file", "node-0", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAll("/t/file", "node-1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("round trip mismatch")
	}
	info, err := fs.Stat("/t/file")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 1000 {
		t.Errorf("Size = %d", info.Size)
	}
	wantBlocks := (1000 + 63) / 64
	if info.Blocks != wantBlocks {
		t.Errorf("Blocks = %d, want %d", info.Blocks, wantBlocks)
	}
}

func TestWriteReadRoundTripQuick(t *testing.T) {
	fs := newTestFS(t, 3, 32)
	i := 0
	f := func(data []byte) bool {
		i++
		path := fmt.Sprintf("/q/%d", i)
		if err := fs.WriteFile(path, "", data); err != nil {
			return false
		}
		got, err := fs.ReadAll(path, "node-0")
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCreateExistingFails(t *testing.T) {
	fs := newTestFS(t, 2, 64)
	if err := fs.WriteFile("/a", "", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("/a", ""); err == nil {
		t.Error("expected create-exists error")
	}
}

// TestWriteFileExistingLeavesIt: WriteFile reserves its name only when it
// places its first block (or closes an empty file), so a WriteFile that
// loses to an existing file must fail without touching it, whatever the
// size of what it was asked to write.
func TestWriteFileExistingLeavesIt(t *testing.T) {
	fs := newTestFS(t, 2, 8)
	if err := fs.WriteFile("/a", "", []byte("first")); err != nil {
		t.Fatal(err)
	}
	blocks := len(fs.blocks)
	for _, data := range [][]byte{nil, []byte("x"), make([]byte, 8), make([]byte, 100)} {
		if err := fs.WriteFile("/a", "", data); err == nil {
			t.Fatalf("WriteFile of %d bytes over an existing file succeeded", len(data))
		}
		got, err := fs.ReadAll("/a", "")
		if err != nil || string(got) != "first" {
			t.Fatalf("after a refused %d-byte WriteFile the file reads %q, %v", len(data), got, err)
		}
		if len(fs.blocks) != blocks {
			t.Fatalf("a refused %d-byte WriteFile left %d blocks behind", len(data), len(fs.blocks)-blocks)
		}
	}
}

// TestWriteFilesMatchesWriteFile: a batch stores what the same WriteFile
// calls in the same order would have stored, block for block and replica
// for replica (placement draws from the filesystem's generator in the same
// order), whatever mix of empty, one-block and many-block files it holds.
func TestWriteFilesMatchesWriteFile(t *testing.T) {
	files := []File{
		{"/b/empty", nil},
		{"/b/small", []byte("abc")},
		{"/b/exact", bytes.Repeat([]byte{7}, 16)},
		{"/b/large", bytes.Repeat([]byte{9}, 16*3+5)},
		{"/b/tail", []byte("z")},
	}
	one, batch := newTestFS(t, 4, 16), newTestFS(t, 4, 16)
	for _, f := range files {
		if err := one.WriteFile(f.Path, "node-1", f.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := batch.WriteFiles("node-1", files); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		got, err := batch.ReadAll(f.Path, "node-2")
		if err != nil || !bytes.Equal(got, f.Data) {
			t.Fatalf("%s reads %d bytes, %v; want %d", f.Path, len(got), err, len(f.Data))
		}
		want, _ := one.BlockLocations(f.Path, 0, 1<<20)
		have, _ := batch.BlockLocations(f.Path, 0, 1<<20)
		if fmt.Sprint(have) != fmt.Sprint(want) {
			t.Errorf("%s: blocks %v, one at a time %v", f.Path, have, want)
		}
	}
	if a, b := one.Metrics().Snapshot().BytesWritten, batch.Metrics().Snapshot().BytesWritten; a != b {
		t.Errorf("bytes written %d in a batch, %d one at a time", b, a)
	}
}

// TestWriteFilesAllOrNothing: a batch naming an existing file fails and
// leaves nothing of itself behind, and the existing file untouched.
func TestWriteFilesAllOrNothing(t *testing.T) {
	fs := newTestFS(t, 2, 8)
	if err := fs.WriteFile("/d/taken", "", []byte("first")); err != nil {
		t.Fatal(err)
	}
	blocks := len(fs.blocks)
	err := fs.WriteFiles("", []File{{"/d/a", []byte("x")}, {"/d/b", make([]byte, 30)}, {"/d/taken", []byte("second")}, {"/d/c", nil}})
	if err == nil {
		t.Fatal("batch over an existing file succeeded")
	}
	if got := fs.List("/d/"); len(got) != 1 || got[0] != "/d/taken" {
		t.Errorf("after the refused batch the directory holds %v", got)
	}
	if got, err := fs.ReadAll("/d/taken", ""); err != nil || string(got) != "first" {
		t.Errorf("the existing file reads %q, %v", got, err)
	}
	if len(fs.blocks) != blocks {
		t.Errorf("the refused batch left %d blocks behind", len(fs.blocks)-blocks)
	}
	// The names are free again.
	if err := fs.WriteFiles("", []File{{"/d/a", []byte("x")}, {"/d/b", make([]byte, 30)}}); err != nil {
		t.Errorf("rewriting the refused names: %v", err)
	}
}

func TestWriteFileEmpty(t *testing.T) {
	fs := newTestFS(t, 2, 8)
	if err := fs.WriteFile("/empty", "", nil); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat("/empty")
	if err != nil || info.Size != 0 || info.Blocks != 0 {
		t.Fatalf("Stat = %+v, %v; want an empty file", info, err)
	}
	if got, err := fs.ReadAll("/empty", ""); err != nil || len(got) != 0 {
		t.Fatalf("ReadAll = %q, %v", got, err)
	}
}

func TestAbortDiscards(t *testing.T) {
	fs := newTestFS(t, 2, 8)
	w, err := fs.Create("/a", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	if fs.Exists("/a") {
		t.Error("aborted file should not exist")
	}
	// Name is free again.
	if err := fs.WriteFile("/a", "", []byte("y")); err != nil {
		t.Errorf("recreate after abort: %v", err)
	}
}

func TestFileVisibleOnlyAfterClose(t *testing.T) {
	fs := newTestFS(t, 2, 8)
	w, err := fs.Create("/pending", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	if info, err := fs.Stat("/pending"); err != nil {
		t.Fatal(err)
	} else if info.Size != 0 {
		t.Errorf("size before close = %d, want 0", info.Size)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if info, _ := fs.Stat("/pending"); info.Size != 16 {
		t.Errorf("size after close = %d", info.Size)
	}
}

func TestListDeleteRename(t *testing.T) {
	fs := newTestFS(t, 2, 64)
	for _, p := range []string{"/d/a", "/d/b", "/e/c"} {
		if err := fs.WriteFile(p, "", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.List("/d/"); len(got) != 2 || got[0] != "/d/a" {
		t.Errorf("List = %v", got)
	}
	fs.Delete("/d/a")
	if fs.Exists("/d/a") {
		t.Error("Delete failed")
	}
	fs.Delete("/d/a") // idempotent
	if err := fs.Rename("/d/b", "/d/z"); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/d/z") || fs.Exists("/d/b") {
		t.Error("Rename failed")
	}
	if err := fs.Rename("/nope", "/x"); err == nil {
		t.Error("expected rename-missing error")
	}
	if err := fs.Rename("/d/z", "/e/c"); err == nil {
		t.Error("expected rename-collision error")
	}
	fs.DeletePrefix("/")
	if len(fs.List("/")) != 0 {
		t.Error("DeletePrefix failed")
	}
}

func TestReplication(t *testing.T) {
	c := cluster.New(cluster.Testing(5))
	fs := New(c, Options{BlockSize: 16, Replication: 3, Seed: 1})
	if err := fs.WriteFile("/r", "node-0", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	locs, err := fs.BlockLocations("/r", 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 4 {
		t.Fatalf("blocks = %d, want 4", len(locs))
	}
	for _, l := range locs {
		if len(l.Hosts) != 3 {
			t.Errorf("replicas = %d, want 3", len(l.Hosts))
		}
		if l.Hosts[0] != "node-0" {
			t.Errorf("first replica = %s, want writer node", l.Hosts[0])
		}
		seen := map[string]bool{}
		for _, h := range l.Hosts {
			if seen[h] {
				t.Errorf("duplicate replica host %s", h)
			}
			seen[h] = true
		}
	}
}

func TestReplicationCappedAtClusterSize(t *testing.T) {
	c := cluster.New(cluster.Testing(2))
	fs := New(c, Options{Replication: 5})
	if fs.Replication() != 2 {
		t.Errorf("Replication = %d, want 2", fs.Replication())
	}
}

func TestBlockLocationsRange(t *testing.T) {
	fs := newTestFS(t, 3, 10)
	if err := fs.WriteFile("/f", "", make([]byte, 35)); err != nil {
		t.Fatal(err)
	}
	locs, err := fs.BlockLocations("/f", 12, 10) // spans blocks 1 and 2
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 2 || locs[0].Offset != 10 || locs[1].Offset != 20 {
		t.Errorf("locations = %+v", locs)
	}
	if _, err := fs.BlockLocations("/missing", 0, 1); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestLocalVsRemoteMetrics(t *testing.T) {
	c := cluster.New(cluster.Testing(4))
	fs := New(c, Options{BlockSize: 1 << 20, Replication: 2, Seed: 7})
	if err := fs.WriteFile("/m", "node-0", make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	// Reading from the writer node is local (writer holds replica 1).
	if _, err := fs.ReadAll("/m", "node-0"); err != nil {
		t.Fatal(err)
	}
	snap := fs.Metrics().Snapshot()
	if snap.LocalBytesRead != 1000 || snap.RemoteBytesRead != 0 {
		t.Errorf("after local read: %+v", snap)
	}
	// Find a node with no replica and read from there.
	locs, _ := fs.BlockLocations("/m", 0, 1000)
	holders := map[string]bool{}
	for _, h := range locs[0].Hosts {
		holders[h] = true
	}
	var outsider string
	for _, n := range c.Nodes() {
		if !holders[n.ID()] {
			outsider = n.ID()
			break
		}
	}
	if outsider == "" {
		t.Fatal("no outsider node")
	}
	if _, err := fs.ReadAll("/m", outsider); err != nil {
		t.Fatal(err)
	}
	snap = fs.Metrics().Snapshot()
	if snap.RemoteBytesRead != 1000 {
		t.Errorf("after remote read: %+v", snap)
	}
}

func TestSeekAndPartialReads(t *testing.T) {
	fs := newTestFS(t, 2, 8)
	data := []byte("abcdefghijklmnopqrstuvwxyz")
	if err := fs.WriteFile("/s", "", data); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open("/s", "node-0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Size() != 26 {
		t.Errorf("Size = %d", r.Size())
	}
	buf := make([]byte, 5)
	if _, err := r.ReadAt(buf, 10); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "klmno" {
		t.Errorf("ReadAt = %q", buf)
	}
	n, err := r.ReadAt(make([]byte, 100), 20) // hits EOF
	if n != 6 || (err != nil && err != io.EOF) {
		t.Errorf("ReadAt at tail: n=%d err=%v", n, err)
	}
	if _, err := r.ReadAt(buf, 100); err != io.EOF {
		t.Errorf("ReadAt past end: %v", err)
	}
}

func TestOpenMissing(t *testing.T) {
	fs := newTestFS(t, 2, 8)
	if _, err := fs.Open("/missing", ""); err == nil {
		t.Error("expected error")
	}
	if _, err := fs.Stat("/missing"); err == nil {
		t.Error("expected error")
	}
}

func TestColocatePolicy(t *testing.T) {
	c := cluster.New(cluster.Testing(6))
	fs := New(c, Options{BlockSize: 16, Replication: 3, Seed: 3})
	fs.SetPlacementPolicy("/cif/", ColocatePolicy{})

	// Several column files in the same partition directory must share
	// replica sets for every block.
	var want []string
	for _, col := range []string{"c0", "c1", "c2"} {
		path := "/cif/tbl/part-0/" + col + ".dat"
		if err := fs.WriteFile(path, "", make([]byte, 48)); err != nil {
			t.Fatal(err)
		}
		locs, err := fs.BlockLocations(path, 0, 48)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range locs {
			if want == nil {
				want = l.Hosts
			} else if fmt.Sprint(l.Hosts) != fmt.Sprint(want) {
				t.Errorf("%s block hosts %v != %v", path, l.Hosts, want)
			}
		}
	}

	// A different partition dir should (with high probability under
	// rendezvous hashing over 6 nodes) get a different set; at minimum it
	// must be internally consistent.
	if err := fs.WriteFile("/cif/tbl/part-1/c0.dat", "", make([]byte, 16)); err != nil {
		t.Fatal(err)
	}

	// Paths outside the policy prefix use the default policy.
	if err := fs.WriteFile("/other/f", "node-0", make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	locs, _ := fs.BlockLocations("/other/f", 0, 16)
	if locs[0].Hosts[0] != "node-0" {
		t.Error("default policy should place first replica on writer")
	}
}

func TestColocateStableUnderMembershipChange(t *testing.T) {
	// Rendezvous hashing: killing an unrelated node must not change the
	// targets for a directory whose nodes survive.
	c := cluster.New(cluster.Testing(6))
	pol := ColocatePolicy{}
	rng := rand.New(rand.NewSource(1))
	before := pol.ChooseTargets("/cif/tbl/part-0/c0.dat", 0, 3, "", c.Alive(), rng)
	ids := map[string]bool{}
	for _, n := range before {
		ids[n.ID()] = true
	}
	// Kill a node not in the chosen set.
	for _, n := range c.Nodes() {
		if !ids[n.ID()] {
			n.Kill()
			break
		}
	}
	after := pol.ChooseTargets("/cif/tbl/part-0/c0.dat", 0, 3, "", c.Alive(), rng)
	if fmt.Sprint(before) != fmt.Sprint(after) {
		t.Errorf("targets changed: %v -> %v", before, after)
	}
}

func TestNodeFailureRereplication(t *testing.T) {
	c := cluster.New(cluster.Testing(5))
	fs := New(c, Options{BlockSize: 32, Replication: 3, Seed: 9})
	data := make([]byte, 200)
	for i := range data {
		data[i] = byte(i)
	}
	if err := fs.WriteFile("/f", "node-0", data); err != nil {
		t.Fatal(err)
	}
	c.Node("node-0").Kill()
	rerep, lost, err := fs.OnNodeFailure("node-0")
	if err != nil {
		t.Fatal(err)
	}
	if lost != 0 {
		t.Errorf("lost = %d", lost)
	}
	if rerep == 0 {
		t.Error("expected re-replications")
	}
	if fs.underReplicated() != 0 {
		t.Errorf("under-replicated = %d after recovery", fs.underReplicated())
	}
	got, err := fs.ReadAll("/f", "node-1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("data corrupted by re-replication")
	}
	// New replicas must not include the dead node.
	locs, _ := fs.BlockLocations("/f", 0, int64(len(data)))
	for _, l := range locs {
		for _, h := range l.Hosts {
			if h == "node-0" {
				t.Error("dead node still listed as replica")
			}
		}
	}
}

func TestAllReplicasLost(t *testing.T) {
	c := cluster.New(cluster.Testing(3))
	fs := New(c, Options{BlockSize: 32, Replication: 1, Seed: 5})
	if err := fs.WriteFile("/f", "node-1", []byte("data")); err != nil {
		t.Fatal(err)
	}
	// Kill the single replica holder.
	locs, _ := fs.BlockLocations("/f", 0, 4)
	holder := locs[0].Hosts[0]
	c.Node(holder).Kill()
	_, lost, _ := fs.OnNodeFailure(holder)
	if lost != 1 {
		t.Errorf("lost = %d, want 1", lost)
	}
	if fs.lostBlocks() != 1 {
		t.Errorf("LostBlocks = %d", fs.lostBlocks())
	}
	if _, err := fs.ReadAll("/f", "node-0"); err == nil {
		t.Error("expected read error for lost block")
	}
}

func TestWriterAfterClose(t *testing.T) {
	fs := newTestFS(t, 2, 8)
	w, _ := fs.Create("/w", "")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Error("expected write-after-close error")
	}
	if err := w.Close(); err != nil {
		t.Error("double close should be nil")
	}
}

// underReplicated returns the number of blocks with fewer than the
// configured replica count (excluding lost blocks).
func (fs *FileSystem) underReplicated() int {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n := 0
	for _, b := range fs.blocks {
		if !b.lost && len(b.replicas) < fs.replication {
			n++
		}
	}
	return n
}

// lostBlocks returns the number of blocks with no surviving replica.
func (fs *FileSystem) lostBlocks() int {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n := 0
	for _, b := range fs.blocks {
		if b.lost {
			n++
		}
	}
	return n
}
