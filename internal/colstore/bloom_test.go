package colstore

import (
	"math/bits"
	"math/rand"
	"testing"
)

// TestKeyBloomNoFalseNegatives: every inserted key must test positive — the
// filter is one-sided, and a false negative would silently drop fact rows
// that belong in the join result.
func TestKeyBloomNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 7, 100, 5000} {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = rng.Int63n(1<<40) - (1 << 39)
		}
		keys[0] = 0 // zero and negative keys are legal join keys
		if n > 1 {
			keys[1] = -1
		}
		b := NewKeyBloom(keys, DefaultBloomBitsPerKey)
		for _, k := range keys {
			if !b.MayContain(k) {
				t.Fatalf("n=%d: inserted key %d tested negative", n, k)
			}
		}
	}
}

// TestKeyBloomFalsePositiveRate: at the default 10 bits/key the register-
// blocked layout lands around ~1% false positives; require under 3% on
// disjoint probe keys so sizing regressions (wrong mask, truncated hashing)
// are caught without flaking on hash luck.
func TestKeyBloomFalsePositiveRate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 4000
	keys := make([]int64, n)
	seen := make(map[int64]bool, n)
	for i := range keys {
		keys[i] = rng.Int63()
		seen[keys[i]] = true
	}
	b := NewKeyBloom(keys, DefaultBloomBitsPerKey)

	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		k := -rng.Int63() - 1 // negative: disjoint from the inserted keys
		if seen[k] {
			continue
		}
		if b.MayContain(k) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.03 {
		t.Errorf("false-positive rate %.4f, want < 0.03", rate)
	}
	// The fraction of set bits is a direct handle on the false-positive
	// rate (about ratio^k).
	set := 0
	for _, w := range b.words {
		set += bits.OnesCount64(w)
	}
	if fr := float64(set) / float64(len(b.words)*64); fr <= 0 || fr > 0.7 {
		t.Errorf("fill ratio = %.3f, want in (0, 0.7] for 10 bits/key", fr)
	}
}

// TestKeyBloomDegenerateSizing: tiny and zero bitsPerKey inputs must still
// produce a working (if dense) filter rather than dividing by zero or
// allocating nothing.
func TestKeyBloomDegenerateSizing(t *testing.T) {
	b := NewKeyBloom([]int64{1, 2, 3}, 0)
	for _, k := range []int64{1, 2, 3} {
		if !b.MayContain(k) {
			t.Fatalf("key %d negative under degenerate sizing", k)
		}
	}
}
