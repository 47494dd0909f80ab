package colstore

// The selection vector of late materialization: which rows of the current
// block are still wanted, in the two forms the decoders read it in.

// gatherBelow is the selection density under which the selected positions
// are read one by one; at or above it, unpacking the whole run a word at a
// time and keeping the selected values is cheaper. It is the ratio of the
// two costs measured by BenchmarkColumnDecode, not a setting.
const gatherBelow = 4 // sparse: count*gatherBelow < rows

// selection is the rows of a block still selected: a mask over the block
// and how many it keeps, and — once they are few enough that walking them
// beats walking the block — the list of their positions, which every column
// read under the selection shares.
type selection struct {
	mask   []bool
	count  int
	idx    []int32 // the selected positions in order, when listed
	listed bool
}

// sparse reports whether reading the selected positions one by one is
// cheaper than reading every row and keeping the selected ones.
func (s *selection) sparse() bool { return s.count*gatherBelow < len(s.mask) }

// positions returns the selected positions in order. The list is built on
// first use and kept current by the filters applied after that.
func (s *selection) positions() []int32 {
	if !s.listed {
		if cap(s.idx) < s.count {
			s.idx = make([]int32, 0, s.count)
		}
		s.idx = s.idx[:0]
		for i, keep := range s.mask {
			if keep {
				s.idx = append(s.idx, int32(i))
			}
		}
		s.listed = true
	}
	return s.idx
}

// keepIf deselects the selected rows that fail pass, which is called with
// their positions in order.
func (s *selection) keepIf(pass func(i int32) bool) {
	idx, k := s.positions(), 0
	for _, i := range idx {
		if pass(i) {
			idx[k] = i
			k++
		} else {
			s.mask[i] = false
		}
	}
	s.idx, s.count = idx[:k], k
}

// keepCodes deselects the rows whose code (codes is indexed by position in
// the block; only selected positions need be filled) fails bits.
func (s *selection) keepCodes(codes []uint32, bits []bool) {
	n := len(s.mask)
	if s.count < n || s.listed {
		s.keepIf(func(i int32) bool { return bits[codes[i]] })
		return
	}
	// Every row is still selected, the common case for the first filter of
	// a block and the one that sees the most rows: test them all and list
	// the survivors in the same pass, storing each position and advancing
	// past it only if it passed — no branch depends on the data.
	if cap(s.idx) < n {
		s.idx = make([]int32, n)
	}
	idx, k := s.idx[:n], 0
	for i, c := range codes[:n] {
		pass := bits[c]
		s.mask[i] = pass
		idx[k] = int32(i)
		if pass {
			k++
		}
	}
	s.idx, s.count, s.listed = idx[:k], k, true
}
