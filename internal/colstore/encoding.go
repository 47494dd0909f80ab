package colstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"clydesdale/internal/records"
)

// Typed column encodings for the column-file format ("CCF2") and for the
// columns of a column set. Three payload kinds exist; every one but the
// plain stream is positional (row i's value sits at an offset computed from
// i), so a reader pays for the rows it wants and not for the rows before
// them.
//
//	EncPlain   — a tagged records.AppendValue stream (any kind).
//	             Always valid, always the fallback, and the one
//	             layout that can only be read front to back.
//	EncDict    — low-cardinality strings: a uvarint entry count, the
//	             distinct strings (uvarint length + bytes) in first-seen
//	             order, then the packed codes: row i's code is the w bits
//	             starting at bit i*w of the rest of the payload (bit 0 is
//	             the low bit of the first byte), w = the bits entries-1
//	             needs, at least 1. The packed region is exactly
//	             ceil(rows*w/8) bytes. At most 4096 entries, so w <= 12.
//	EncDictI64 — low-cardinality integers: the same layout with one varint
//	             per entry.
//	EncFOR     — other integers, frame-of-reference: frames of 1024 rows
//	             (the last one shorter), each `varint min, width byte w,
//	             (v - min) packed at w bits` and byte-aligned, 1 <= w <= 56.
//	             A column with a frame spanning more than 56 bits is stored
//	             plain.
//
// A width never exceeds 56, so any value lies inside the eight bytes at its
// first byte and one little-endian 64-bit load, a shift and a mask yield it;
// the last values of a region are loaded through a zero-padded copy, never
// past the payload. Runs are unpacked a load at a time (57/w values per
// load), single rows and sparse selections are gathered by position, and
// skipping rows moves a cursor.
//
// Ids 1-3 named the varint-stream layouts this format replaced (dictionary
// codes as one uvarint per row, delta-varint integers). No writer emits them
// and no reader accepts them: a payload carrying one is refused by id.

// Encoding identifies a column payload's physical layout.
type Encoding uint8

const (
	// EncPlain is a tagged AppendValue stream (any kind).
	EncPlain Encoding = 0
	// EncDict is dictionary-coded strings with bit-packed codes.
	EncDict Encoding = 4
	// EncFOR is frame-of-reference int64: per 1024-row frame a minimum and
	// the bit-packed offsets from it.
	EncFOR Encoding = 5
	// EncDictI64 is dictionary-coded int64 with bit-packed codes.
	// Low-cardinality key and flag columns (FKs into small dimensions,
	// quantities, discounts) compress well and expose raw codes to the
	// code-space execution path.
	EncDictI64 Encoding = 6
)

// retiredEncodings names the ids of the varint-stream layouts.
var retiredEncodings = map[Encoding]string{
	1: "varint-coded string dictionary",
	2: "delta-varint integers",
	3: "varint-coded int64 dictionary",
}

func (e Encoding) String() string {
	switch e {
	case EncPlain:
		return "plain"
	case EncDict:
		return "dict"
	case EncFOR:
		return "for"
	case EncDictI64:
		return "dict-i64"
	default:
		return fmt.Sprintf("enc(%d)", uint8(e))
	}
}

const (
	// maxDictEntries bounds the dictionary: beyond this the column is not
	// low-cardinality and the size comparison would rarely pay anyway.
	maxDictEntries = 4096
	// forFrameRows is the rows per frame of an EncFOR column: the unit a
	// minimum and a width are chosen for, and the granularity at which a
	// range predicate can be settled without looking at values.
	forFrameRows = 1024
	// maxPackedWidth is the widest packed value: with it a value starting at
	// any bit of a byte still ends inside an eight-byte load.
	maxPackedWidth = 56
)

// codeWidth is the bits per packed code of a dictionary with the given
// number of entries.
func codeWidth(entries int) uint {
	if entries <= 2 {
		return 1
	}
	return uint(bits.Len(uint(entries - 1)))
}

// packedLen is the bytes n values packed at w bits occupy.
func packedLen(n int, w uint) int { return (n*int(w) + 7) / 8 }

// spanWidth is the bits the offsets of a frame ranging over [lo, hi] need.
func spanWidth(lo, hi int64) uint {
	if w := uint(bits.Len64(uint64(hi) - uint64(lo))); w > 1 {
		return w
	}
	return 1
}

func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

func varintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// dictEntries carries a dict-encoded column's dictionary (in first-seen
// order) out of encodeColumn, so zone-map stats can range over the distinct
// values instead of re-scanning every row. Exactly one of strs/ints is set.
type dictEntries struct {
	strs []string
	ints []int64
}

// encodeColumn picks the encoding for one buffered column and returns it,
// its payload, and — when a dictionary encoding won — the dictionary entries
// (nil otherwise). Candidate sizes are computed by arithmetic in one pass
// over the values; only the winner is built.
//
// Dictionary coding is preferred whenever it beats plain, even if
// frame-of-reference would be a few bytes smaller: a dictionary unlocks
// compressed execution (code-space predicates, bloom tests per distinct
// value, O(1) dictionary-probe side tables), which is worth far more than
// the marginal size difference. Frame-of-reference remains the choice for
// high-cardinality integers, where dictionaries don't apply or lose to
// plain.
func encodeColumn(cv *records.ColumnVector) (Encoding, []byte, *dictEntries) {
	switch cv.Kind {
	case records.KindInt64:
		return encodeInts(cv)
	case records.KindString:
		return encodeStrings(cv)
	}
	return EncPlain, encodePlain(cv, 9*cv.Len()), nil
}

// encodePlain is the tagged stream of cv's values; size is the capacity to
// start from, the stream's length where the caller has computed it.
func encodePlain(cv *records.ColumnVector, size int) []byte {
	buf := make([]byte, 0, size)
	for i := 0; i < cv.Len(); i++ {
		buf = records.AppendValue(buf, cv.Value(i))
	}
	return buf
}

// dictBuilder measures a column as a dictionary payload: it assigns
// first-seen codes to the values until the dictionary overflows, keeping
// each row's code, and builds the payload if asked to.
type dictBuilder[T comparable] struct {
	codes   map[T]uint32
	entries []T
	rows    []uint32 // each row's code
	full    bool     // more than maxDictEntries distinct values
	size    int      // bytes of the entries as the payload stores them
}

func newDictBuilder[T comparable](rows int) *dictBuilder[T] {
	return &dictBuilder[T]{codes: make(map[T]uint32, 64), rows: make([]uint32, 0, rows)}
}

// add records one row's value; entrySize is what a new entry costs.
func (b *dictBuilder[T]) add(v T, entrySize int) {
	if n := len(b.rows); n > 0 && b.entries[b.rows[n-1]] == v {
		b.rows = append(b.rows, b.rows[n-1]) // a run: no lookup
		return
	}
	c, ok := b.codes[v]
	if !ok {
		if len(b.entries) == maxDictEntries {
			b.full = true
			return
		}
		c = uint32(len(b.entries))
		b.codes[v] = c
		b.entries = append(b.entries, v)
		b.size += entrySize
	}
	b.rows = append(b.rows, c)
}

// payloadSize is the dictionary payload's length: count, entries, codes.
func (b *dictBuilder[T]) payloadSize() int {
	return uvarintLen(uint64(len(b.entries))) + b.size + packedLen(len(b.rows), codeWidth(len(b.entries)))
}

// payload builds the dictionary payload, entries written by appendEntry.
func (b *dictBuilder[T]) payload(appendEntry func([]byte, T) []byte) []byte {
	buf := make([]byte, 0, b.payloadSize())
	buf = binary.AppendUvarint(buf, uint64(len(b.entries)))
	for _, e := range b.entries {
		buf = appendEntry(buf, e)
	}
	return appendPacked(buf, b.rows, 0, codeWidth(len(b.entries)))
}

func appendDictString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

func encodeStrings(cv *records.ColumnVector) (Encoding, []byte, *dictEntries) {
	d := newDictBuilder[string](len(cv.Strs))
	plain := 0
	for _, s := range cv.Strs {
		n := uvarintLen(uint64(len(s))) + len(s)
		plain += 1 + n
		if !d.full {
			d.add(s, n)
		}
	}
	if !d.full && d.payloadSize() < plain {
		return EncDict, d.payload(appendDictString), &dictEntries{strs: d.entries}
	}
	return EncPlain, encodePlain(cv, plain), nil
}

func encodeInts(cv *records.ColumnVector) (Encoding, []byte, *dictEntries) {
	d := newDictBuilder[int64](len(cv.Ints))
	plain := 0
	for _, v := range cv.Ints {
		n := varintLen(v)
		plain += 1 + n
		if !d.full {
			d.add(v, n)
		}
	}
	if !d.full && d.payloadSize() < plain {
		return EncDictI64, d.payload(binary.AppendVarint), &dictEntries{ints: d.entries}
	}
	if frames, size := measureFrames(cv.Ints); size < plain {
		return EncFOR, packFrames(cv.Ints, frames, size), nil
	}
	return EncPlain, encodePlain(cv, plain), nil
}

// forFrame is one frame of an EncFOR payload: its minimum, the width of its
// packed offsets, and (to a reader) where they start in the payload.
type forFrame struct {
	min int64
	w   uint
	off int
}

// measureFrames chooses each frame's minimum and width and returns them with
// the length of the EncFOR payload they make: math.MaxInt if a frame spans
// more than maxPackedWidth bits, which no payload can hold.
func measureFrames(vals []int64) ([]forFrame, int) {
	frames := make([]forFrame, 0, (len(vals)+forFrameRows-1)/forFrameRows)
	size := 0
	for start := 0; start < len(vals); start += forFrameRows {
		frame := vals[start:min(start+forFrameRows, len(vals))]
		lo, hi := frame[0], frame[0]
		for _, v := range frame[1:] {
			lo, hi = min(lo, v), max(hi, v)
		}
		w := spanWidth(lo, hi)
		if w > maxPackedWidth {
			return nil, math.MaxInt
		}
		frames = append(frames, forFrame{min: lo, w: w})
		size += varintLen(lo) + 1 + packedLen(len(frame), w)
	}
	return frames, size
}

// packFrames builds the EncFOR payload measureFrames measured.
func packFrames(vals []int64, frames []forFrame, size int) []byte {
	buf := make([]byte, 0, size)
	for i, f := range frames {
		start := i * forFrameRows
		buf = binary.AppendVarint(buf, f.min)
		buf = append(buf, byte(f.w))
		buf = appendPacked(buf, vals[start:min(start+forFrameRows, len(vals))], f.min, f.w)
	}
	return buf
}

// appendPacked appends vals, each less base, packed at w bits a value, low
// bits first, padded with zero bits to a whole byte.
func appendPacked[T uint32 | int64](buf []byte, vals []T, base T, w uint) []byte {
	var acc uint64 // the nbits (< 8 between values) low bits are pending
	var nbits uint
	for _, v := range vals {
		acc |= uint64(v-base) << nbits
		nbits += w // <= 7 + 56
		for nbits >= 8 {
			buf = append(buf, byte(acc))
			acc >>= 8
			nbits -= 8
		}
	}
	if nbits > 0 {
		buf = append(buf, byte(acc))
	}
	return buf
}

// loadWord returns the eight bytes at buf[off:] as a little-endian word;
// bytes past the end of buf read as zero, so the last values of a packed
// region are loaded without touching what follows it.
func loadWord(buf []byte, off int) uint64 {
	if off+8 <= len(buf) {
		return binary.LittleEndian.Uint64(buf[off:])
	}
	return loadTail(buf, off)
}

func loadTail(buf []byte, off int) uint64 {
	var word uint64
	for i := len(buf) - 1; i >= off; i-- {
		word = word<<8 | uint64(buf[i])
	}
	return word
}

// loadBits returns the w-bit value starting at the given bit of buf.
func loadBits(buf []byte, bit int, w uint) uint64 {
	return loadWord(buf, bit>>3) >> (uint(bit) & 7) & (1<<w - 1)
}

// unpack fills dst with the len(dst) w-bit values starting at the given bit
// of buf, each plus base, and returns the largest. One load yields 57/w
// values: as many as fit in a word whatever bit of its first byte they start
// at.
func unpack[T uint32 | int64](dst []T, buf []byte, bit int, w uint, base T) T {
	mask := uint64(1)<<w - 1
	per := int(57 / w)
	var top T
	for len(dst) > 0 {
		word := loadWord(buf, bit>>3) >> (uint(bit) & 7)
		run := dst[:min(per, len(dst))]
		for i := range run {
			v := T(word&mask) + base
			word >>= w & 63
			run[i] = v
			top = max(top, v)
		}
		dst = dst[len(run):]
		bit += len(run) * int(w)
	}
	return top
}

// colFile is one column payload taken apart: its encoding, row count,
// dictionary or frame directory, and the packed region or stream they
// index. It is read-only once opened, so one colFile serves any number of
// readers at once, each through its own colDecoder. A CIF column file's is
// kept on its HDFS block for as long as the block lives (openColumn).
type colFile struct {
	kind    records.Kind
	enc     Encoding
	rows    int        // rows in the column
	payload []byte     // plain: the stream; dictionary: the packed codes; EncFOR: the payload
	dict    []string   // EncDict only
	intDict []int64    // EncDictI64 only
	width   uint       // dictionary encodings: bits per code
	frames  []forFrame // EncFOR only

	desc *records.ColumnDict // the dictionary's descriptor, set by openColumnFile
}

// colDecoder reads a colFile through a row cursor of its own. It supports
// boxed next() for the row-at-a-time path, bulk decodeInto and decodeCodes
// for block iteration, decodeSelected (decodeFiltered, given only a mask) and
// decodeCodesSelected for late materialization, and skip.
// On a packed payload a bulk read costs by the rows it returns and skip is
// free; a plain stream has to be parsed past either way.
type colDecoder struct {
	*colFile
	pos   int      // the cursor: every read starts at this row and moves past what it read
	buf   []byte   // plain: the stream from row pos on; otherwise the payload
	codes []uint32 // scratch: a run's codes on their way to values
}

// cursor returns a decoder over f positioned at the first row.
func (f *colFile) cursor() *colDecoder {
	return &colDecoder{colFile: f, buf: f.payload}
}

// newColFile parses a payload's dictionary or frame headers and checks
// that the payload is exactly as long as its rows need. The caller has
// bounded rows by the payload (rows <= 8 * len(payload): a value is at least
// a bit), which is what bounds the frame directory allocated here.
func newColFile(kind records.Kind, enc Encoding, rows int, payload []byte) (*colFile, error) {
	d := &colFile{kind: kind, enc: enc, rows: rows, payload: payload}
	switch enc {
	case EncPlain:
	case EncFOR:
		if kind != records.KindInt64 {
			return nil, fmt.Errorf("colstore: %s encoding on %s column", enc, kind)
		}
		d.frames = make([]forFrame, (rows+forFrameRows-1)/forFrameRows)
		pos := 0
		for i := range d.frames {
			lo, used := binary.Varint(payload[pos:])
			if used <= 0 || pos+used >= len(payload) {
				return nil, fmt.Errorf("colstore: frame %d of %d: bad header at byte %d of %d", i, len(d.frames), pos, len(payload))
			}
			w := uint(payload[pos+used])
			if w < 1 || w > maxPackedWidth {
				return nil, fmt.Errorf("colstore: frame %d: width %d outside 1..%d", i, w, maxPackedWidth)
			}
			pos += used + 1
			d.frames[i] = forFrame{min: lo, w: w, off: pos}
			n := packedLen(min(forFrameRows, rows-i*forFrameRows), w)
			if n > len(payload)-pos {
				return nil, fmt.Errorf("colstore: frame %d: %d packed bytes, %d left", i, n, len(payload)-pos)
			}
			pos += n
		}
		if pos != len(payload) {
			return nil, fmt.Errorf("colstore: %d bytes after the last frame", len(payload)-pos)
		}
	case EncDictI64:
		if kind != records.KindInt64 {
			return nil, fmt.Errorf("colstore: %s encoding on %s column", enc, kind)
		}
		n, err := d.dictHeader()
		if err != nil {
			return nil, err
		}
		d.intDict = make([]int64, n)
		for i := range d.intDict {
			v, used := binary.Varint(d.payload)
			if used <= 0 {
				return nil, fmt.Errorf("colstore: bad dictionary entry")
			}
			d.intDict[i] = v
			d.payload = d.payload[used:]
		}
	case EncDict:
		if kind != records.KindString {
			return nil, fmt.Errorf("colstore: %s encoding on %s column", enc, kind)
		}
		n, err := d.dictHeader()
		if err != nil {
			return nil, err
		}
		// Entries are substrings of one copy of the dictionary's bytes: one
		// allocation for the strings, not one per entry.
		type span struct{ lo, hi int }
		spans := make([]span, n)
		pos := 0
		for i := range spans {
			l, used := binary.Uvarint(d.payload[pos:])
			if used <= 0 || uint64(len(d.payload)-pos-used) < l {
				return nil, fmt.Errorf("colstore: bad dictionary entry")
			}
			spans[i] = span{pos + used, pos + used + int(l)}
			pos = spans[i].hi
		}
		all := string(d.payload[:pos])
		d.dict = make([]string, n)
		for i, sp := range spans {
			d.dict[i] = all[sp.lo:sp.hi]
		}
		d.payload = d.payload[pos:]
	default:
		if was, ok := retiredEncodings[enc]; ok {
			return nil, fmt.Errorf("colstore: column encoding id %d (%s) is retired: the table predates positional payloads and must be rewritten", uint8(enc), was)
		}
		return nil, fmt.Errorf("colstore: unknown column encoding id %d", uint8(enc))
	}
	if enc == EncDict || enc == EncDictI64 {
		d.width = codeWidth(d.dictSize())
		if want := packedLen(rows, d.width); len(d.payload) != want {
			return nil, fmt.Errorf("colstore: %d rows of %d-bit codes need %d bytes, payload has %d", rows, d.width, want, len(d.payload))
		}
	}
	return d, nil
}

// dictHeader reads a dictionary's entry count.
func (d *colFile) dictHeader() (int, error) {
	n, used := binary.Uvarint(d.payload)
	if used <= 0 || n > maxDictEntries || n > uint64(len(d.payload)-used) { // an entry is at least a byte
		return 0, fmt.Errorf("colstore: bad dictionary size")
	}
	d.payload = d.payload[used:]
	return int(n), nil
}

// dictSize returns the dictionary entry count, or 0 when the payload is not
// dictionary-encoded.
func (d *colFile) dictSize() int {
	if d.enc == EncDict {
		return len(d.dict)
	}
	if d.enc == EncDictI64 {
		return len(d.intDict)
	}
	return 0
}

// dictValue boxes dictionary entry c (valid for dictionary encodings only).
func (d *colFile) dictValue(c int) records.Value {
	if d.enc == EncDict {
		return records.Str(d.dict[c])
	}
	return records.Int(d.intDict[c])
}

// fingerprint returns the descriptor of a dictionary-encoded column, nil
// for any other. The ID fingerprints the entries (values and order), so
// equal dictionaries in different partitions hash alike and can share
// downstream caches such as probe side tables; consumers that key caches on
// the ID still verify the entries on a pointer mismatch.
func (d *colFile) fingerprint() *records.ColumnDict {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	// FNV-1a's step taken a whole entry at a time (a scan fingerprints up to
	// 4096 entries per dictionary column per partition). Both halves of the
	// step are one-to-one on h, so two dictionaries of one length that
	// differ in a single entry still never fingerprint alike.
	mix := func(v uint64) { h = (h ^ v) * prime64 }
	switch d.enc {
	case EncDict:
		mix(uint64(len(d.dict)))
		for _, s := range d.dict {
			mix(uint64(len(s)))
			for i := 0; i < len(s); i++ {
				mix(uint64(s[i]))
			}
		}
		return &records.ColumnDict{ID: h, Strs: d.dict}
	case EncDictI64:
		mix(uint64(len(d.intDict)))
		for _, v := range d.intDict {
			mix(uint64(v))
		}
		return &records.ColumnDict{ID: h, Ints: d.intDict}
	}
	return nil
}

// take moves the cursor past the next n rows and returns where they start.
func (d *colDecoder) take(n int) (int, error) {
	if n < 0 || n > d.rows-d.pos {
		return 0, fmt.Errorf("colstore: read of %d rows at row %d of %d", n, d.pos, d.rows)
	}
	start := d.pos
	d.pos += n
	return start, nil
}

// skip moves the cursor past the next n rows without decoding them. Only a
// plain stream has to parse its way there.
func (d *colDecoder) skip(n int) error {
	if d.enc == EncPlain {
		return d.decodePlainInto(nil, n, nil)
	}
	_, err := d.take(n)
	return err
}

// codeAt returns row i's dictionary code, checked against the dictionary.
func (d *colDecoder) codeAt(i int) (uint32, error) {
	c := loadBits(d.buf, i*int(d.width), d.width)
	if c >= uint64(d.dictSize()) {
		return 0, fmt.Errorf("colstore: dictionary code %d at row %d, %d entries", c, i, d.dictSize())
	}
	return uint32(c), nil
}

// intAt returns row i of an EncFOR column.
func (d *colDecoder) intAt(i int) int64 {
	f := &d.frames[i/forFrameRows]
	return f.min + int64(loadBits(d.buf, f.off*8+(i%forFrameRows)*int(f.w), f.w))
}

// next decodes one value boxed (the row-at-a-time path).
func (d *colDecoder) next() (records.Value, error) {
	i := d.pos
	if i >= d.rows {
		return records.Null, fmt.Errorf("colstore: read past row %d, the column's last", d.rows)
	}
	d.pos++
	switch d.enc {
	case EncPlain:
		v, used, err := records.DecodeValue(d.buf)
		if err != nil {
			return records.Null, err
		}
		d.buf = d.buf[used:]
		return v, nil
	case EncFOR:
		return records.Int(d.intAt(i)), nil
	}
	c, err := d.codeAt(i)
	if err != nil {
		return records.Null, err
	}
	return d.dictValue(int(c)), nil
}

// decodeCodes appends the next n rows' raw dictionary codes to dst without
// touching the dictionary — no value is materialized. This is the scan's
// code-space fast path: predicates and semi-join filters translated to code
// bitmaps test these codes directly, and only surviving rows ever see a
// value. The codes are compared with the dictionary size once, through the
// run's largest.
func (d *colDecoder) decodeCodes(dst []uint32, n int) ([]uint32, error) {
	start, err := d.take(n)
	if err != nil {
		return dst, err
	}
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	if top := unpack(dst[base:], d.buf, start*int(d.width), d.width, 0); n > 0 && int(top) >= d.dictSize() {
		return dst[:base], fmt.Errorf("colstore: dictionary code %d in rows [%d,%d), %d entries", top, start, start+n, d.dictSize())
	}
	return dst, nil
}

// unpackFrames appends rows [start, start+n) of an EncFOR column to dst,
// frame by frame.
func (d *colDecoder) unpackFrames(dst []int64, start, n int) []int64 {
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	for out := dst[base:]; len(out) > 0; {
		f := &d.frames[start/forFrameRows]
		at := start % forFrameRows
		run := out[:min(forFrameRows-at, len(out))]
		unpack(run, d.buf, f.off*8+at*int(f.w), f.w, f.min)
		out, start = out[len(run):], start+len(run)
	}
	return dst
}

// decodeInto appends the next n rows' values to cv using the typed bulk
// path.
func (d *colDecoder) decodeInto(cv *records.ColumnVector, n int) error {
	switch d.enc {
	case EncDict, EncDictI64:
		codes, err := d.decodeCodes(d.codes[:0], n)
		d.codes = codes
		if err != nil {
			return err
		}
		if d.enc == EncDict {
			for _, c := range codes {
				cv.Strs = append(cv.Strs, d.dict[c])
			}
		} else {
			for _, c := range codes {
				cv.Ints = append(cv.Ints, d.intDict[c])
			}
		}
		return nil
	case EncFOR:
		start, err := d.take(n)
		if err != nil {
			return err
		}
		cv.Ints = d.unpackFrames(cv.Ints, start, n)
		return nil
	default:
		return d.decodePlainInto(cv, n, nil)
	}
}

// decodeSelected consumes len(s.mask) rows, appending to cv those s selects.
// On a packed payload the unselected rows are never looked at when the
// selection is sparse, and a dense one is unpacked a word at a time and
// compacted; a plain stream parses past them without materializing (no
// string allocation, no boxing).
func (d *colDecoder) decodeSelected(cv *records.ColumnVector, s *selection) error {
	n := len(s.mask)
	switch {
	case s.count == n:
		return d.decodeInto(cv, n)
	case s.count == 0:
		return d.skip(n)
	case d.enc == EncPlain:
		return d.decodePlainInto(cv, n, s.mask)
	case !s.sparse():
		base := cv.Len()
		if err := d.decodeInto(cv, n); err != nil {
			return err
		}
		if d.enc == EncDict {
			cv.Strs = cv.Strs[:base+compactInto(cv.Strs[base:], s.mask)]
		} else {
			cv.Ints = cv.Ints[:base+compactInto(cv.Ints[base:], s.mask)]
		}
		return nil
	}
	start, err := d.take(n)
	if err != nil {
		return err
	}
	if d.enc == EncFOR {
		for _, i := range s.positions() {
			cv.Ints = append(cv.Ints, d.intAt(start+int(i)))
		}
		return nil
	}
	for _, i := range s.positions() {
		c, err := d.codeAt(start + int(i))
		if err != nil {
			return err
		}
		if d.enc == EncDict {
			cv.Strs = append(cv.Strs, d.dict[c])
		} else {
			cv.Ints = append(cv.Ints, d.intDict[c])
		}
	}
	return nil
}

// decodeFiltered is decodeSelected for a caller holding only the mask.
func (d *colDecoder) decodeFiltered(cv *records.ColumnVector, sel []bool) error {
	s := selection{mask: sel}
	for _, keep := range sel {
		if keep {
			s.count++
		}
	}
	return d.decodeSelected(cv, &s)
}

// decodeCodesSelected consumes len(s.mask) rows of a dictionary column and
// returns their raw codes in dst, indexed by position in the block: every
// position when the selection is dense (one unpacked run), the selected ones
// only when it is sparse — the rest of dst is then stale.
func (d *colDecoder) decodeCodesSelected(dst []uint32, s *selection) ([]uint32, error) {
	n := len(s.mask)
	if !s.sparse() {
		return d.decodeCodes(dst[:0], n)
	}
	start, err := d.take(n)
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst[:0], n)[:n]
	for _, i := range s.positions() {
		if dst[i], err = d.codeAt(start + int(i)); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// compactInto moves the values of vals at positions where sel is true to the
// front, in order, and returns how many there are.
func compactInto[T any](vals []T, sel []bool) int {
	k := 0
	for i, keep := range sel {
		if keep {
			vals[k] = vals[i]
			k++
		}
	}
	return k
}

// appendFromCodes materializes dictionary values into cv for the rows s
// selects (a nil s selects every row; codes is indexed by position in the
// block), recording the code alongside each value so consumers can keep
// operating in code space downstream.
func (d *colDecoder) appendFromCodes(cv *records.ColumnVector, codes []uint32, s *selection) {
	appendCode := func(c uint32) {
		if d.enc == EncDict {
			cv.Strs = append(cv.Strs, d.dict[c])
		} else {
			cv.Ints = append(cv.Ints, d.intDict[c])
		}
		cv.Codes = append(cv.Codes, c)
	}
	if s == nil || s.count == len(s.mask) {
		for _, c := range codes {
			appendCode(c)
		}
		return
	}
	for _, i := range s.positions() {
		appendCode(codes[i])
	}
}

// decodeRangeSel bulk-decodes the next len(sel) rows of an EncFOR column
// into cv while ANDing "lo <= v <= hi" into sel. A frame holds values in
// [min, min+2^w) only, so where that interval lies inside the range the
// frame's rows are unpacked without a comparison, and where it lies outside
// they are deselected without being unpacked (their slots in cv are left
// for the caller's compaction to drop). Arrival-clustered columns settle
// most frames this way.
func (d *colDecoder) decodeRangeSel(cv *records.ColumnVector, sel []bool, lo, hi int64) error {
	start, err := d.take(len(sel))
	if err != nil {
		return err
	}
	for len(sel) > 0 {
		f := &d.frames[start/forFrameRows]
		n := min(forFrameRows-start%forFrameRows, len(sel))
		fhi := f.min + int64(uint64(1)<<f.w-1)
		if fhi < f.min {
			fhi = math.MaxInt64
		}
		switch {
		case fhi < lo || f.min > hi:
			base := len(cv.Ints)
			cv.Ints = slices.Grow(cv.Ints, n)[:base+n]
			clear(sel[:n])
		case lo <= f.min && fhi <= hi:
			cv.Ints = d.unpackFrames(cv.Ints, start, n)
		default:
			cv.Ints = d.unpackFrames(cv.Ints, start, n)
			for i, v := range cv.Ints[len(cv.Ints)-n:] {
				if v < lo || v > hi {
					sel[i] = false
				}
			}
		}
		sel, start = sel[n:], start+n
	}
	return nil
}

// appendCoerced appends a boxed value to a typed vector, mapping nulls
// (which the block representation cannot carry — there is no null mask) to
// the column kind's zero value. The CIF writer never emits nulls, but plain
// payloads from foreign writers may; a null run must degrade to zero
// values, not crash the scan task.
func appendCoerced(cv *records.ColumnVector, v records.Value) error {
	if v.IsNull() {
		switch cv.Kind {
		case records.KindInt64:
			cv.Ints = append(cv.Ints, 0)
		case records.KindFloat64:
			cv.Floats = append(cv.Floats, 0)
		case records.KindString:
			cv.Strs = append(cv.Strs, "")
		case records.KindBool:
			cv.Bools = append(cv.Bools, false)
		}
		return nil
	}
	// Append takes what the Value accessors widen (bool as int, int as
	// float) and panics on the rest; a stream is outside input.
	k := v.Kind()
	switch {
	case k == cv.Kind:
	case cv.Kind == records.KindInt64 && k == records.KindBool:
	case cv.Kind == records.KindFloat64 && (k == records.KindInt64 || k == records.KindBool):
	default:
		return fmt.Errorf("colstore: %s value in %s column", k, cv.Kind)
	}
	cv.Append(v)
	return nil
}

// decodePlainInto is the typed decoder of the tagged AppendValue stream: it
// consumes n values and appends them to cv — all of them when sel is nil,
// those at selected positions otherwise, none when cv is nil (a skip);
// strings that are not kept are never allocated. Tag bytes not matching the
// column's kind fall back to the boxed path (null or mixed-kind
// streams).
func (d *colDecoder) decodePlainInto(cv *records.ColumnVector, n int, sel []bool) error {
	if _, err := d.take(n); err != nil {
		return err
	}
	buf := d.buf
	for i := 0; i < n; i++ {
		keep := cv != nil && (sel == nil || sel[i])
		if len(buf) == 0 {
			return fmt.Errorf("colstore: short column payload")
		}
		if records.Kind(buf[0]) != d.kind {
			// Rare path: boxed decode.
			v, used, err := records.DecodeValue(buf)
			if err != nil {
				return err
			}
			buf = buf[used:]
			if keep {
				if err := appendCoerced(cv, v); err != nil {
					return err
				}
			}
			continue
		}
		rest := buf[1:]
		switch d.kind {
		case records.KindInt64:
			v, used := binary.Varint(rest)
			if used <= 0 {
				return fmt.Errorf("colstore: bad int varint")
			}
			buf = rest[used:]
			if keep {
				cv.Ints = append(cv.Ints, v)
			}
		case records.KindBool:
			v, used := binary.Varint(rest)
			if used <= 0 {
				return fmt.Errorf("colstore: bad bool varint")
			}
			buf = rest[used:]
			if keep {
				cv.Bools = append(cv.Bools, v != 0)
			}
		case records.KindFloat64:
			if len(rest) < 8 {
				return fmt.Errorf("colstore: short float")
			}
			if keep {
				cv.Floats = append(cv.Floats, math.Float64frombits(binary.LittleEndian.Uint64(rest)))
			}
			buf = rest[8:]
		case records.KindString:
			l, used := binary.Uvarint(rest)
			if used <= 0 || uint64(len(rest)-used) < l {
				return fmt.Errorf("colstore: bad string")
			}
			if keep {
				cv.Strs = append(cv.Strs, string(rest[used:used+int(l)]))
			}
			buf = rest[used+int(l):]
		default:
			return fmt.Errorf("colstore: cannot bulk-decode kind %s", d.kind)
		}
	}
	d.buf = buf
	return nil
}
