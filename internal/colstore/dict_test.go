package colstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// mapDict is the reference dictBuilder is held to: a Go map from value to
// first-seen code. The builder must agree with it on every input.
type mapDict[T comparable] struct {
	codes   map[T]uint32
	entries []T
	rows    []uint32
	full    bool
	size    int
}

func (m *mapDict[T]) add(v T, entrySize int) {
	c, ok := m.codes[v]
	if !ok {
		if len(m.entries) == maxDictEntries {
			m.full = true
			return
		}
		c = uint32(len(m.entries))
		m.codes[v] = c
		m.entries = append(m.entries, v)
		m.size += entrySize
	}
	m.rows = append(m.rows, c)
}

// checkDict feeds vals to a dictBuilder started at rows (and at the scratch
// given) and to the map reference, stopping both at overflow as the
// encoders do, and fails unless codes, entries, overflow, measured size and
// payload agree.
func checkDict[T dictKey](t *testing.T, name string, vals []T, rows int, sc *encodeScratch, size func(T) int, appendEntry func([]byte, T) []byte) {
	t.Helper()
	b := newDictBuilder[T](rows, sc)
	m := &mapDict[T]{codes: map[T]uint32{}}
	for _, v := range vals {
		if !b.full {
			b.add(v, size(v))
		}
		if !m.full {
			m.add(v, size(v))
		}
	}
	switch {
	case b.full != m.full:
		t.Fatalf("%s: full = %v, the map's %v", name, b.full, m.full)
	case !slices.Equal(b.entries, m.entries):
		t.Fatalf("%s: %d entries differ from the map's %d", name, len(b.entries), len(m.entries))
	case b.full:
		return // the encoders drop an overflowed builder's codes
	case !slices.Equal(b.rows, m.rows):
		t.Fatalf("%s: codes differ from the map's", name)
	}
	want := uvarintLen(uint64(len(m.entries))) + m.size + packedLen(len(m.rows), codeWidth(len(m.entries)))
	if b.payloadSize() != want {
		t.Fatalf("%s: payloadSize %d, the map's %d", name, b.payloadSize(), want)
	}
	ref := binary.AppendUvarint(nil, uint64(len(m.entries)))
	for _, e := range m.entries {
		ref = appendEntry(ref, e)
	}
	ref = appendPacked(ref, m.rows, 0, codeWidth(len(m.entries)))
	if got := b.payload(appendEntry); !bytes.Equal(got, ref) {
		t.Fatalf("%s: payload differs from the map's", name)
	}
}

func checkInts(t *testing.T, name string, vals []int64, rows int, sc *encodeScratch) {
	t.Helper()
	checkDict(t, name, vals, rows, sc, varintLen, binary.AppendVarint)
}

func checkStrings(t *testing.T, name string, vals []string, rows int, sc *encodeScratch) {
	t.Helper()
	checkDict(t, name, vals, rows, sc, func(s string) int { return uvarintLen(uint64(len(s))) + len(s) }, appendDictString)
}

// TestDictBuilderMatchesMap: the open-addressing builder assigns the codes,
// keeps the entries, overflows and measures exactly as a map-based builder
// does, on runs, on keys that share a slot of the table, at the int64
// extremes, on empty and long strings, at maxDictEntries distinct values
// and one more, from a builder started at 0 rows (which has to grow), and
// with one scratch carried across all of them as a CIFWriter carries it.
func TestDictBuilderMatchesMap(t *testing.T) {
	sc := new(encodeScratch)
	const n = 1000
	table := 2048 // the table a 1000-row column gets

	var runs []int64
	for i := 0; i < n; i++ {
		runs = append(runs, int64(i/37%5))
	}
	// Keys whose hash lands in one slot, and multiples of the table size.
	var colliding []int64
	shift := uint(64 - 11)
	for v := int64(0); len(colliding) < 40; v++ {
		if hashInt(v)>>shift == hashInt(0)>>shift {
			colliding = append(colliding, v)
		}
	}
	colliding = append(colliding, colliding...)
	var multiples []int64
	for i := 0; i < n; i++ {
		multiples = append(multiples, int64(i%300)*int64(table))
	}
	extremes := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}
	distinct := func(k int) []int64 {
		vals := make([]int64, 0, 2*k)
		for i := 0; i < k; i++ {
			vals = append(vals, int64(i)*7919-1_000_000)
		}
		return append(vals, vals...)
	}
	for _, c := range []struct {
		name string
		vals []int64
		rows int
	}{
		{"runs", runs, len(runs)},
		{"colliding", colliding, len(colliding)},
		{"multiples-of-table", multiples, len(multiples)},
		{"extremes", extremes, len(extremes)},
		{"max-entries", distinct(maxDictEntries), 2 * maxDictEntries},
		{"max-entries+1", distinct(maxDictEntries + 1), 2 * (maxDictEntries + 1)},
		{"empty", nil, 0},
		{"from-0-rows", multiples, 0},
		{"from-0-rows-max-entries+1", distinct(maxDictEntries + 1), 0},
		{"rows-underestimated", colliding, 3},
	} {
		checkInts(t, c.name, c.vals, c.rows, sc)
		checkInts(t, c.name+"/fresh-scratch", c.vals, c.rows, nil)
	}

	long := strings.Repeat("x", 1<<16)
	strs := []string{"", "a", "", long, long + "y", "a", long, "", "b"}
	var many []string
	for i := 0; i <= maxDictEntries; i++ {
		many = append(many, fmt.Sprintf("s%d", i))
	}
	for _, c := range []struct {
		name string
		vals []string
		rows int
	}{
		{"empty-and-long", strs, len(strs)},
		{"max-entries", many[:maxDictEntries], maxDictEntries},
		{"max-entries+1", many, len(many)},
		{"from-0-rows", strs, 0},
		{"from-0-rows-max-entries+1", many, 0},
	} {
		checkStrings(t, c.name, c.vals, c.rows, sc)
	}
}

// FuzzDictBuilder holds the builder to the map reference on arbitrary
// integer and string columns, started at an arbitrary row guess.
func FuzzDictBuilder(f *testing.F) {
	f.Add([]byte("aaaabbbbaaaacccc"), uint16(16))
	f.Add([]byte{0, 0, 0, 1, 0, 0, 8, 0, 0, 16, 0, 0}, uint16(0))
	f.Add(bytes.Repeat([]byte{0xff, 0x80, 0x7f, 0}, 64), uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, guess uint16) {
		var ints []int64
		for i := 0; i+3 <= len(data); i += 3 {
			// A high byte of few values, so columns repeat; the top bits
			// reach the int64 extremes.
			ints = append(ints, int64(int8(data[i]))<<56|int64(data[i+1]%8)<<11|int64(data[i+2]%4))
		}
		strs := strings.Split(string(data), "\x00")
		checkInts(t, "ints", ints, int(guess)%(len(ints)+1), nil)
		checkStrings(t, "strings", strs, int(guess)%(len(strs)+1), nil)
	})
}
