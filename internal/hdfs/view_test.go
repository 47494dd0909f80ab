package hdfs

import (
	"bytes"
	"fmt"
	"maps"
	"runtime"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/obs"
)

// pattern returns n deterministic, non-constant bytes.
func pattern(n int, salt byte) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i%251) ^ salt
	}
	return data
}

// readAtWhole reads the whole file through one ReadAt, the copying path.
func readAtWhole(t *testing.T, fs *FileSystem, path, client string) []byte {
	t.Helper()
	r, err := fs.Open(path, client)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, r.Size())
	if _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestReadAllOneBlockIsCappedView: a one-block whole-file read hands out the
// replica's verified bytes, capped so that a caller's append reallocates
// instead of writing past them, and a later read still sees the original.
func TestReadAllOneBlockIsCappedView(t *testing.T) {
	fs := newTestFS(t, 3, 4096)
	data := pattern(1000, 0)
	if err := fs.WriteFile("/v/one", "node-0", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAll("/v/one", "node-0")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("view differs from the written bytes")
	}
	if cap(got) != len(got) {
		t.Fatalf("cap %d != len %d: an append could reach the replica", cap(got), len(got))
	}
	grown := append(got, 0xEE)
	if &grown[0] == &got[0] {
		t.Fatal("append wrote into the view's backing array")
	}
	again, err := fs.ReadAll("/v/one", "node-1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("a second read does not return the original bytes")
	}
	if &again[0] != &got[0] {
		t.Error("two one-block reads returned different buffers: the read copied")
	}
}

// TestReadAllCopiesEmptyAndMultiBlock: an empty file and a file of several
// blocks come back as fresh copies, which a caller may change.
func TestReadAllCopiesEmptyAndMultiBlock(t *testing.T) {
	fs := newTestFS(t, 3, 64)
	if err := fs.WriteFile("/v/empty", "node-0", nil); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAll("/v/empty", "node-0")
	if err != nil || len(got) != 0 {
		t.Fatalf("empty file: %d bytes, %v", len(got), err)
	}

	data := pattern(3*64, 7)
	if err := fs.WriteFile("/v/three", "node-0", data); err != nil {
		t.Fatal(err)
	}
	if info, _ := fs.Stat("/v/three"); info.Blocks != 3 {
		t.Fatalf("%d blocks, want 3", info.Blocks)
	}
	first, err := fs.ReadAll("/v/three", "node-0")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, data) {
		t.Fatal("three-block read differs from the written bytes")
	}
	for i := range first {
		first[i] ^= 0xFF
	}
	second, err := fs.ReadAll("/v/three", "node-0")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second, data) {
		t.Error("a write into a three-block read reached the replicas")
	}
}

// readRecord is everything reads record: the filesystem's metrics, the
// registry's counters and histogram, the cluster's charges and the spans.
type readRecord struct {
	snap                 MetricsSnapshot
	local, remote, reads int64
	charged              cluster.Stats
	spans                []obs.Span
}

// TestReadAllAccountsLikeReadAt: the view path records a one-block read
// exactly as a whole-file ReadAt does — byte counters, read count, charges,
// the read-time histogram and the hdfs-read span — for a local and for a
// remote client. Each path runs on its own, identically built filesystem.
func TestReadAllAccountsLikeReadAt(t *testing.T) {
	data := pattern(3000, 1)
	run := func(read func(fs *FileSystem, path, client string) []byte) readRecord {
		c := cluster.New(cluster.Testing(3))
		fs := New(c, Options{BlockSize: 4096, Replication: 1, Seed: 3})
		sink := obs.NewMemorySink()
		reg := obs.NewRegistry()
		fs.Observe(obs.NewTracer(sink), reg)
		if err := fs.WriteFile("/v/acct", "node-0", data); err != nil {
			t.Fatal(err)
		}
		for _, client := range []string{"node-0", "node-2"} {
			if got := read(fs, "/v/acct", client); !bytes.Equal(got, data) {
				t.Fatalf("%s: bytes differ from the written file", client)
			}
		}
		counts := reg.Snapshot().Counters
		return readRecord{
			snap:    fs.Metrics().Snapshot(),
			local:   counts["hdfs.read_bytes_local"],
			remote:  counts["hdfs.read_bytes_remote"],
			reads:   reg.Histogram("hdfs.read_ns").Count(),
			charged: c.TotalStats(),
			spans:   sink.Spans(),
		}
	}
	viewed := run(func(fs *FileSystem, path, client string) []byte {
		got, err := fs.ReadAll(path, client)
		if err != nil {
			t.Fatal(err)
		}
		return got
	})
	copied := run(func(fs *FileSystem, path, client string) []byte { return readAtWhole(t, fs, path, client) })

	// The one replica is node-0's, so the second client reads remotely.
	if viewed.local != 3000 || viewed.remote != 3000 || viewed.reads != 2 || len(viewed.spans) != 2 {
		t.Fatalf("ReadAll recorded %+v, want 3000 local and 3000 remote bytes in two timed, traced reads", viewed)
	}
	if viewed.snap != copied.snap || viewed.local != copied.local || viewed.remote != copied.remote ||
		viewed.reads != copied.reads || viewed.charged != copied.charged || len(viewed.spans) != len(copied.spans) {
		t.Fatalf("ReadAll recorded %+v, whole-file ReadAt %+v", viewed, copied)
	}
	for i, vs := range viewed.spans {
		rs := copied.spans[i]
		if vs.Name != obs.PhaseHDFSRead || vs.Name != rs.Name || vs.Node != rs.Node || !maps.Equal(vs.Attrs, rs.Attrs) {
			t.Errorf("span %d: ReadAll %s %s %v, ReadAt %s %s %v", i, vs.Name, vs.Node, vs.Attrs, rs.Name, rs.Node, rs.Attrs)
		}
	}
}

// TestReadAllViewFailsOverCorruptReplica: a one-block read whose local
// replica is corrupt fails over and returns pristine bytes, and counts the
// CRC failure and the failover exactly as a whole-file ReadAt does.
func TestReadAllViewFailsOverCorruptReplica(t *testing.T) {
	c := cluster.New(cluster.Testing(4))
	fs := New(c, Options{BlockSize: 4096, Replication: 3, Seed: 5})
	data := pattern(2048, 3)
	reads := map[string]func(path, client string) []byte{
		"ReadAll": func(path, client string) []byte {
			got, err := fs.ReadAll(path, client)
			if err != nil {
				t.Fatal(err)
			}
			return got
		},
		"ReadAt": func(path, client string) []byte { return readAtWhole(t, fs, path, client) },
	}
	for name, read := range reads {
		path := "/v/corrupt-" + name
		if err := fs.WriteFile(path, "node-0", data); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.CorruptReplica(path, 0, "node-0"); err != nil {
			t.Fatal(err)
		}
		before := fs.Metrics().Snapshot()
		got := read(path, "node-0")
		after := fs.Metrics().Snapshot()
		if !bytes.Equal(got, data) {
			t.Errorf("%s returned corrupt bytes", name)
		}
		if d := after.CRCFailures - before.CRCFailures; d != 1 {
			t.Errorf("%s: CRCFailures +%d, want +1", name, d)
		}
		if d := after.Failovers - before.Failovers; d != 1 {
			t.Errorf("%s: Failovers +%d, want +1", name, d)
		}
		if d := after.RemoteBytesRead - before.RemoteBytesRead; d != int64(len(data)) {
			t.Errorf("%s: remote bytes +%d, want %d: the failover is a remote read", name, d, len(data))
		}
		if again := read(path, "node-0"); !bytes.Equal(again, data) {
			t.Errorf("%s: re-read after the failover differs", name)
		}
	}
}

// TestReadAllOneBlockAllocationFlat: a one-block whole-file read allocates
// the same few bytes whatever the file's size; a copy would allocate it all.
func TestReadAllOneBlockAllocationFlat(t *testing.T) {
	const reads = 20
	fs := newTestFS(t, 2, 2<<20)
	for _, size := range []int{16 << 10, 1 << 20} {
		path := fmt.Sprintf("/v/alloc-%d", size)
		if err := fs.WriteFile(path, "node-0", pattern(size, 9)); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.ReadAll(path, "node-0"); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < reads; i++ {
			if _, err := fs.ReadAll(path, "node-0"); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / reads; per > 8<<10 {
			t.Errorf("%d-byte file: %d bytes allocated per read, want under 8 KiB whatever the size", size, per)
		}
	}
}

// BenchmarkReadAll is a whole-file read of a 256 KiB file that is one
// block (the view path) and four blocks (the copy path), untraced.
func BenchmarkReadAll(b *testing.B) {
	const size = 256 << 10
	for _, bc := range []struct {
		name  string
		block int64
	}{{"one-block", 1 << 20}, {"multi-block", 64 << 10}} {
		b.Run(bc.name, func(b *testing.B) {
			fs := New(cluster.New(cluster.Testing(3)), Options{BlockSize: bc.block, Seed: 1})
			if err := fs.WriteFile("/bench", "node-0", pattern(size, 0)); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(size)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := fs.ReadAll("/bench", "node-0"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
