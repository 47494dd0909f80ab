package colstore

// Semi-join filter pushdown (sideways information passing): after the driver
// scans a filtered dimension, the set of surviving join keys is summarized
// into a bloom filter and pushed into the fact scan, where rows whose FK is
// provably absent are dropped before their remaining columns materialize and
// before they reach the probe. The filter is one-sided by construction — it
// can pass a key that is absent (false positive) but never reject one that
// is present — so pushdown only ever drops rows the probe would miss anyway:
// a false positive costs one probe miss downstream, never a wrong answer.

// DefaultBloomBitsPerKey sizes filters at build time. Ten bits per key with
// seven probe bits gives a ~1% false-positive rate in the register-blocked
// layout below; a filter over a whole SSB dimension stays a few KB.
const DefaultBloomBitsPerKey = 10

// bloomProbes is the number of bits set/tested per key (k).
const bloomProbes = 7

// KeyBloom is an immutable register-blocked bloom filter over int64 join
// keys: all k bits of a key live in one 64-bit word, so a membership test
// is one load and one compare instead of k dependent cache misses. The scan
// tests every surviving fact row against every pushed filter, so per-test
// cost dominates the pushdown's economics; the blocked layout trades a
// slightly higher false-positive rate (~1% vs ~0.1% at 10 bits/key) for an
// order of magnitude fewer memory accesses. Build once with NewKeyBloom;
// MayContain is safe for concurrent use.
type KeyBloom struct {
	words []uint64
	mask  uint64 // word-index mask (len(words)-1, power of two)
}

// NewKeyBloom builds a filter containing exactly the given keys, sized at
// bitsPerKey bits per key (<= 0 uses DefaultBloomBitsPerKey), rounded up to
// a power-of-two word count.
func NewKeyBloom(keys []int64, bitsPerKey int) *KeyBloom {
	if bitsPerKey <= 0 {
		bitsPerKey = DefaultBloomBitsPerKey
	}
	nbits := len(keys) * bitsPerKey
	if nbits < 64 {
		nbits = 64
	}
	words := 1
	for words*64 < nbits {
		words *= 2
	}
	b := &KeyBloom{words: make([]uint64, words), mask: uint64(words) - 1}
	for _, k := range keys {
		idx, pattern := bloomPos(k)
		b.words[idx&b.mask] |= pattern
	}
	return b
}

// MayContain reports whether k may be in the set. False is definitive (k was
// never added); true may be a false positive.
func (b *KeyBloom) MayContain(k int64) bool {
	idx, pattern := bloomPos(k)
	return b.words[idx&b.mask]&pattern == pattern
}

// bloomPos hashes a key (splitmix64 finalizer) into a word index and the
// in-word bit pattern. The pattern consumes the low 42 bits (seven 6-bit
// positions, overlaps allowed) and the index the remaining high bits, so
// the two are quasi-independent: a full-pattern collision between two keys
// requires agreeing on both, not just on the masked index.
func bloomPos(k int64) (idx uint64, pattern uint64) {
	x := uint64(k)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	h := x
	for i := 0; i < bloomProbes; i++ {
		pattern |= 1 << (h & 63)
		h >>= 6
	}
	return x >> 42, pattern
}

// KeyFilter pairs a fact FK column with the bloom filter of dimension keys
// that survive that dimension's predicate. The scan uses it only to drop
// rows (never to add them), so correctness needs exactly the one-sided
// property above: no false negatives.
type KeyFilter struct {
	Column string
	Keys   *KeyBloom
}
