package hdfs

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/obs"
)

// countingDecode returns a decode that copies the bytes into a string and
// counts its calls.
func countingDecode(calls *atomic.Int64) func([]byte) (any, error) {
	return func(data []byte) (any, error) {
		calls.Add(1)
		return string(data), nil
	}
}

func readDecoded(t *testing.T, fs *FileSystem, path, client string, decode func([]byte) (any, error)) string {
	t.Helper()
	v, data, err := fs.ReadDecoded(path, client, obs.SpanContext{}, decode)
	if err != nil {
		t.Fatalf("ReadDecoded %s from %s: %v", path, client, err)
	}
	if s := v.(string); s != string(data) {
		t.Fatalf("ReadDecoded %s: value %q, bytes %q", path, s, data)
	}
	return v.(string)
}

// TestReadDecodedAccountsLikeReadAll: a memoized read records exactly what
// ReadAll records — modeled time and every other cluster charge, local and
// remote bytes, failovers, the read histogram and the hdfs-read span — on
// a cold and on a warm memo, for a local and a remote client.
func TestReadDecodedAccountsLikeReadAll(t *testing.T) {
	data := pattern(3000, 1)
	run := func(read func(fs *FileSystem, path, client string) []byte) readRecord {
		c := cluster.New(cluster.Testing(3))
		fs := New(c, Options{BlockSize: 4096, Replication: 1, Seed: 3})
		sink := obs.NewMemorySink()
		reg := obs.NewRegistry()
		fs.Observe(obs.NewTracer(sink), reg)
		if err := fs.WriteFile("/m/acct", "node-0", data); err != nil {
			t.Fatal(err)
		}
		before := c.TotalStats()
		for _, client := range []string{"node-0", "node-2", "node-0", "node-2"} {
			if got := read(fs, "/m/acct", client); !bytes.Equal(got, data) {
				t.Fatalf("%s: bytes differ from the written file", client)
			}
		}
		charged := c.TotalStats()
		if charged.ModelTime <= before.ModelTime {
			t.Fatalf("four reads charged no modeled time: %v then %v", before.ModelTime, charged.ModelTime)
		}
		counts := reg.Snapshot().Counters
		return readRecord{
			snap:    fs.Metrics().Snapshot(),
			local:   counts["hdfs.read_bytes_local"],
			remote:  counts["hdfs.read_bytes_remote"],
			reads:   reg.Histogram("hdfs.read_ns").Count(),
			charged: charged,
			spans:   sink.Spans(),
		}
	}
	var calls atomic.Int64
	memo := run(func(fs *FileSystem, path, client string) []byte {
		return []byte(readDecoded(t, fs, path, client, countingDecode(&calls)))
	})
	plain := run(func(fs *FileSystem, path, client string) []byte {
		got, err := fs.ReadAll(path, client)
		if err != nil {
			t.Fatal(err)
		}
		return got
	})
	if calls.Load() != 1 {
		t.Fatalf("decode ran %d times over four reads of one block, want 1", calls.Load())
	}
	if memo.local != 6000 || memo.remote != 6000 || memo.reads != 4 || len(memo.spans) != 4 {
		t.Fatalf("ReadDecoded recorded %+v, want 6000 local and 6000 remote bytes in four timed, traced reads", memo)
	}
	if memo.snap != plain.snap || memo.local != plain.local || memo.remote != plain.remote ||
		memo.reads != plain.reads || memo.charged != plain.charged || len(memo.spans) != len(plain.spans) {
		t.Fatalf("ReadDecoded recorded %+v, ReadAll %+v", memo, plain)
	}
	for i, ms := range memo.spans {
		ps := plain.spans[i]
		if ms.Name != obs.PhaseHDFSRead || ms.Name != ps.Name || ms.Node != ps.Node || !maps.Equal(ms.Attrs, ps.Attrs) {
			t.Errorf("span %d: ReadDecoded %s %s %v, ReadAll %s %s %v", i, ms.Name, ms.Node, ms.Attrs, ps.Name, ps.Node, ps.Attrs)
		}
	}
}

// TestReadDecodedOncePerBlock: a one-block file is decoded once, whichever
// node reads it and however often; another file is decoded on its own; and
// a rename keeps the block, so the file is not decoded again.
func TestReadDecodedOncePerBlock(t *testing.T) {
	fs := newTestFS(t, 4, 4096)
	for _, p := range []string{"/m/a", "/m/b"} {
		if err := fs.WriteFile(p, "node-0", []byte("contents of "+p)); err != nil {
			t.Fatal(err)
		}
	}
	var calls atomic.Int64
	decode := countingDecode(&calls)
	for round := 0; round < 3; round++ {
		for n := 0; n < 4; n++ {
			if got := readDecoded(t, fs, "/m/a", fmt.Sprintf("node-%d", n), decode); got != "contents of /m/a" {
				t.Fatalf("read %q", got)
			}
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("twelve reads from four nodes decoded %d times, want 1", calls.Load())
	}
	if got := readDecoded(t, fs, "/m/b", "", decode); got != "contents of /m/b" || calls.Load() != 2 {
		t.Fatalf("second file read %q after %d decodes", got, calls.Load())
	}
	if err := fs.Rename("/m/a", "/m/renamed"); err != nil {
		t.Fatal(err)
	}
	if got := readDecoded(t, fs, "/m/renamed", "node-1", decode); got != "contents of /m/a" || calls.Load() != 2 {
		t.Fatalf("renamed file read %q after %d decodes, want the kept value and no decode", got, calls.Load())
	}
}

// TestReadDecodedStillVerifiesEveryRead: a replica corrupted after the memo
// was filled is still caught by the read's CRC check, counted, dropped and
// failed over from, and the read returns the kept value.
func TestReadDecodedStillVerifiesEveryRead(t *testing.T) {
	c := cluster.New(cluster.Testing(4))
	fs := New(c, Options{BlockSize: 4096, Replication: 3, Seed: 5})
	data := pattern(2048, 3)
	if err := fs.WriteFile("/m/crc", "node-0", data); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	decode := countingDecode(&calls)
	locs, err := fs.BlockLocations("/m/crc", 0, 1)
	if err != nil || len(locs) != 1 || len(locs[0].Hosts) != 3 {
		t.Fatalf("locations %v, %v", locs, err)
	}
	holder := locs[0].Hosts[0]
	readDecoded(t, fs, "/m/crc", holder, decode)
	if _, err := fs.CorruptReplica("/m/crc", 0, holder); err != nil {
		t.Fatal(err)
	}
	before := fs.Metrics().Snapshot()
	if got := readDecoded(t, fs, "/m/crc", holder, decode); got != string(data) {
		t.Fatal("the read after the corruption returned other bytes")
	}
	after := fs.Metrics().Snapshot()
	if d := after.CRCFailures - before.CRCFailures; d != 1 {
		t.Errorf("CRCFailures +%d, want +1", d)
	}
	if d := after.Failovers - before.Failovers; d != 1 {
		t.Errorf("Failovers +%d, want +1", d)
	}
	if d := after.RemoteBytesRead - before.RemoteBytesRead; d != int64(len(data)) {
		t.Errorf("remote bytes +%d, want %d: the failover is a remote read", d, len(data))
	}
	if calls.Load() != 1 {
		t.Errorf("decode ran %d times, want 1: the memo outlives a bad replica", calls.Load())
	}
}

// TestReadDecodedFailureNotKept: while decode fails, every read fails and
// calls it again; the first success is kept.
func TestReadDecodedFailureNotKept(t *testing.T) {
	fs := newTestFS(t, 3, 4096)
	if err := fs.WriteFile("/m/bad", "node-0", []byte("x")); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	broken := errors.New("broken")
	failing := func([]byte) (any, error) {
		calls.Add(1)
		return nil, broken
	}
	for i := 0; i < 3; i++ {
		if _, _, err := fs.ReadDecoded("/m/bad", "node-1", obs.SpanContext{}, failing); !errors.Is(err, broken) {
			t.Fatalf("read %d: err = %v, want the decode's", i, err)
		}
	}
	if calls.Load() != 3 {
		t.Fatalf("three failing reads decoded %d times", calls.Load())
	}
	working := countingDecode(&calls)
	for i := 0; i < 3; i++ {
		readDecoded(t, fs, "/m/bad", "node-2", working)
	}
	if calls.Load() != 4 {
		t.Fatalf("%d decodes, want 3 failed and 1 kept", calls.Load())
	}
}

// TestReadDecodedForgetsDeletedBlocks: a path deleted and written again is
// decoded from its new bytes, by DeletePrefix as by Delete.
func TestReadDecodedForgetsDeletedBlocks(t *testing.T) {
	fs := newTestFS(t, 3, 4096)
	var calls atomic.Int64
	decode := countingDecode(&calls)
	for i, del := range []func(){func() { fs.Delete("/m/p/f") }, func() { fs.DeletePrefix("/m/p/") }, nil} {
		body := fmt.Sprintf("version %d", i)
		if err := fs.WriteFile("/m/p/f", "node-0", []byte(body)); err != nil {
			t.Fatal(err)
		}
		if got := readDecoded(t, fs, "/m/p/f", "node-1", decode); got != body {
			t.Fatalf("read %q, want %q", got, body)
		}
		if del != nil {
			del()
		}
	}
	if calls.Load() != 3 {
		t.Fatalf("three versions decoded %d times", calls.Load())
	}
}

// TestReadDecodedMultiBlockEveryRead: a file of several blocks, and an
// empty one, are decoded on every read.
func TestReadDecodedMultiBlockEveryRead(t *testing.T) {
	fs := newTestFS(t, 3, 64)
	data := pattern(200, 5)
	if err := fs.WriteFile("/m/multi", "node-0", data); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/m/empty", "node-0", nil); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	decode := countingDecode(&calls)
	for i := 0; i < 3; i++ {
		if got := readDecoded(t, fs, "/m/multi", "node-1", decode); got != string(data) {
			t.Fatal("multi-block read differs")
		}
		if got := readDecoded(t, fs, "/m/empty", "node-1", decode); got != "" {
			t.Fatalf("empty read %q", got)
		}
	}
	if calls.Load() != 6 {
		t.Fatalf("six reads decoded %d times, want every one", calls.Load())
	}
}

// TestPrefixListingMatchesNamespace replays a seeded random sequence of
// namespace changes — create, close, abort, delete, DeletePrefix, rename
// and WriteFiles — and after every step holds List and Visit to a filter
// of the whole namespace.
func TestPrefixListingMatchesNamespace(t *testing.T) {
	fs := newTestFS(t, 3, 16)
	rng := rand.New(rand.NewSource(7))
	name := func() string {
		return fmt.Sprintf("/%c/%c%d/%d", 'a'+rng.Intn(3), 'p'+rng.Intn(3), rng.Intn(4), rng.Intn(6))
	}
	prefixes := []string{"", "/", "/a", "/a/", "/b/p", "/b/p1", "/c/q2/", "/c/q2/3", "/z"}
	var open []*Writer
	for step := 0; step < 2000; step++ {
		var what string
		switch op := rng.Intn(8); op {
		case 0, 1:
			what = "create"
			if w, err := fs.Create(name(), ""); err == nil {
				w.Write(pattern(rng.Intn(40), byte(step)))
				open = append(open, w)
			}
		case 2:
			what = "close"
			if len(open) > 0 {
				i := rng.Intn(len(open))
				open[i].Close()
				open = slices.Delete(open, i, i+1)
			}
		case 3:
			what = "abort"
			if len(open) > 0 {
				i := rng.Intn(len(open))
				open[i].Abort()
				open = slices.Delete(open, i, i+1)
			}
		case 4:
			what = "delete"
			fs.Delete(name())
		case 5:
			what = "delete prefix"
			if rng.Intn(4) == 0 {
				fs.DeletePrefix(prefixes[2+rng.Intn(len(prefixes)-2)])
			}
		case 6:
			what = "rename"
			fs.Rename(name(), name())
		default:
			what = "write files"
			fs.WriteFiles("", []File{{Path: name(), Data: pattern(rng.Intn(40), 1)}, {Path: name()}})
		}
		for _, prefix := range prefixes {
			var want []string
			for p := range fs.files {
				if strings.HasPrefix(p, prefix) {
					want = append(want, p)
				}
			}
			slices.Sort(want)
			if got := fs.List(prefix); !slices.Equal(got, want) {
				t.Fatalf("step %d (%s): List(%q) = %v, namespace holds %v", step, what, prefix, got, want)
			}
			var visited []string
			fs.Visit(prefix, func(p string) { visited = append(visited, p) })
			slices.Sort(visited)
			if !slices.Equal(visited, want) {
				t.Fatalf("step %d (%s): Visit(%q) = %v, namespace holds %v", step, what, prefix, visited, want)
			}
		}
	}
}

// TestReadDecodedRacingFirstReads: reads racing to fill an empty memo may
// each decode, but every one of them returns the one value kept.
func TestReadDecodedRacingFirstReads(t *testing.T) {
	fs := newTestFS(t, 4, 4096)
	for round := 0; round < 20; round++ {
		path := fmt.Sprintf("/m/race-%d", round)
		if err := fs.WriteFile(path, "node-0", pattern(100, byte(round))); err != nil {
			t.Fatal(err)
		}
		decode := func(data []byte) (any, error) { return &data, nil }
		got := make([]any, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				v, _, err := fs.ReadDecoded(path, fmt.Sprintf("node-%d", g%4), obs.SpanContext{}, decode)
				if err != nil {
					t.Error(err)
				}
				got[g] = v
			}(g)
		}
		wg.Wait()
		for g, v := range got {
			if v != got[0] {
				t.Fatalf("round %d: reader %d got another value than reader 0", round, g)
			}
		}
	}
}
