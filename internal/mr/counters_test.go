package mr

import (
	"sync"
	"testing"
)

// TestCountersConcurrent hammers one counter set from many goroutines; run
// under -race it also proves the locking is sound.
func TestCountersConcurrent(t *testing.T) {
	c := NewCounters()
	const goroutines = 16
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Add("shared", 1)
				c.Add("pairs", 2)
			}
		}()
	}
	wg.Wait()
	if got := c.Get("shared"); got != goroutines*perG {
		t.Errorf("shared = %d, want %d", got, goroutines*perG)
	}
	if got := c.Get("pairs"); got != 2*goroutines*perG {
		t.Errorf("pairs = %d, want %d", got, 2*goroutines*perG)
	}
}

func TestCountersMerge(t *testing.T) {
	a := NewCounters()
	a.Add("x", 1)
	a.Add("y", 10)
	b := NewCounters()
	b.Add("y", 5)
	b.Add("z", 7)
	a.Merge(b)
	if got := a.Get("x"); got != 1 {
		t.Errorf("x = %d, want 1", got)
	}
	if got := a.Get("y"); got != 15 {
		t.Errorf("y = %d, want 15", got)
	}
	if got := a.Get("z"); got != 7 {
		t.Errorf("z = %d, want 7", got)
	}
	// Merge must not alias: changing b afterwards leaves a untouched.
	b.Add("z", 100)
	if got := a.Get("z"); got != 7 {
		t.Errorf("z after mutating source = %d, want 7", got)
	}
}

func TestCountersSnapshotIsolated(t *testing.T) {
	c := NewCounters()
	c.Add("n", 3)
	snap := c.Snapshot()
	snap["n"] = 99
	snap["other"] = 1
	if got := c.Get("n"); got != 3 {
		t.Errorf("n = %d after mutating snapshot, want 3", got)
	}
	if got := c.Get("other"); got != 0 {
		t.Errorf("other = %d after mutating snapshot, want 0", got)
	}
	if snap := c.Snapshot(); len(snap) != 1 || snap["n"] != 3 {
		t.Errorf("snapshot = %v, want [n:3]", snap)
	}
}
