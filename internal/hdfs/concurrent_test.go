package hdfs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"clydesdale/internal/cluster"
)

// TestConcurrentReadersWriters hammers the filesystem from many goroutines:
// distinct writers creating files while readers re-read completed ones.
func TestConcurrentReadersWriters(t *testing.T) {
	c := cluster.New(cluster.Testing(4))
	fs := New(c, Options{BlockSize: 512, Seed: 21})

	const files = 24
	payload := func(i int) []byte {
		data := make([]byte, 700+i*13)
		for j := range data {
			data[j] = byte(i * (j + 1))
		}
		return data
	}

	var wg sync.WaitGroup
	errs := make(chan error, files*3)
	for i := 0; i < files; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := fmt.Sprintf("/c/f-%03d", i)
			node := fmt.Sprintf("node-%d", i%4)
			if err := fs.WriteFile(path, node, payload(i)); err != nil {
				errs <- err
				return
			}
			// Immediately read back from two different nodes.
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					got, err := fs.ReadAll(path, fmt.Sprintf("node-%d", (i+r+1)%4))
					if err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(got, payload(i)) {
						errs <- fmt.Errorf("%s: corrupted read", path)
					}
				}(r)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := len(fs.List("/c/")); got != files {
		t.Errorf("files = %d, want %d", got, files)
	}
}

// TestConcurrentWriteFileOneWinner: writers racing for one name conflict
// deterministically. Exactly one WriteFile succeeds, the file holds that
// writer's bytes, and the losers leave no blocks behind.
func TestConcurrentWriteFileOneWinner(t *testing.T) {
	c := cluster.New(cluster.Testing(4))
	fs := New(c, Options{BlockSize: 64, Seed: 5})
	for round := 0; round < 20; round++ {
		path := fmt.Sprintf("/race/f-%d", round)
		const writers = 8
		var wg sync.WaitGroup
		won := make([]bool, writers)
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// Sizes on both sides of a block, so losers abort with and
				// without sealed blocks of their own.
				data := bytes.Repeat([]byte{byte(i + 1)}, 10+i*30)
				won[i] = fs.WriteFile(path, fmt.Sprintf("node-%d", i%4), data) == nil
			}(i)
		}
		wg.Wait()
		winner := -1
		for i, ok := range won {
			if ok {
				if winner >= 0 {
					t.Fatalf("round %d: writers %d and %d both succeeded", round, winner, i)
				}
				winner = i
			}
		}
		if winner < 0 {
			t.Fatalf("round %d: no writer succeeded", round)
		}
		got, err := fs.ReadAll(path, "node-0")
		if want := bytes.Repeat([]byte{byte(winner + 1)}, 10+winner*30); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("round %d: file holds %d bytes of %v (%v), want writer %d's", round, len(got), got[:1], err, winner)
		}
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	referenced := 0
	for _, f := range fs.files {
		referenced += len(f.blocks)
	}
	if len(fs.blocks) != referenced {
		t.Errorf("%d blocks recorded, %d referenced by files: losers left blocks behind", len(fs.blocks), referenced)
	}
}

// TestDefaultPlacementSpreadsReplicas checks the default policy balances
// second/third replicas across the cluster rather than pinning them.
func TestDefaultPlacementSpreadsReplicas(t *testing.T) {
	c := cluster.New(cluster.Testing(6))
	fs := New(c, Options{BlockSize: 64, Replication: 3, Seed: 77})
	counts := map[string]int{}
	for i := 0; i < 60; i++ {
		path := fmt.Sprintf("/s/f-%d", i)
		if err := fs.WriteFile(path, "node-0", make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		locs, _ := fs.BlockLocations(path, 0, 64)
		for _, h := range locs[0].Hosts {
			counts[h]++
		}
	}
	// node-0 holds every first replica (writer locality).
	if counts["node-0"] != 60 {
		t.Errorf("writer-local replicas = %d, want 60", counts["node-0"])
	}
	// Every other node should hold a fair share of the remaining replicas
	// (120 replicas over 5 nodes = 24 each; allow wide slack).
	for n, got := range counts {
		if n == "node-0" {
			continue
		}
		if got < 8 || got > 40 {
			t.Errorf("%s holds %d replicas; placement is badly skewed", n, got)
		}
	}
}

// TestConcurrentRereplication exercises failure handling while reads are in
// flight.
func TestConcurrentRereplication(t *testing.T) {
	c := cluster.New(cluster.Testing(5))
	fs := New(c, Options{BlockSize: 256, Replication: 3, Seed: 9})
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i % 255)
	}
	for i := 0; i < 6; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/r/f-%d", i), "node-1", data); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := fs.ReadAll(fmt.Sprintf("/r/f-%d", i), "node-2")
			if err == nil && !bytes.Equal(got, data) {
				t.Errorf("f-%d corrupted", i)
			}
			// A read error is acceptable only if it mentions replicas (the
			// node died mid-read); data corruption never is.
		}(i)
	}
	c.Node("node-1").Kill()
	if _, _, err := fs.OnNodeFailure("node-1"); err != nil {
		t.Error(err)
	}
	wg.Wait()
	// After recovery every file is intact and fully replicated.
	if fs.underReplicated() != 0 {
		t.Errorf("under-replicated = %d", fs.underReplicated())
	}
	for i := 0; i < 6; i++ {
		got, err := fs.ReadAll(fmt.Sprintf("/r/f-%d", i), "node-3")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("f-%d corrupted after re-replication", i)
		}
	}
}
