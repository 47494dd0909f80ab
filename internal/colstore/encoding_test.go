package colstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"clydesdale/internal/records"
)

// openPayload opens a decoder over a copy of payload that is followed in
// memory by bytes of all ones: a load that strayed past the payload's end
// would either fault on the slice bound or pull those bits into a value.
func openPayload(t testing.TB, kind records.Kind, enc Encoding, rows int, payload []byte) *colDecoder {
	t.Helper()
	backing := append(append(make([]byte, 0, len(payload)+16), payload...), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
	d, err := newColDecoder(kind, enc, rows, backing[:len(payload)])
	if err != nil {
		t.Fatalf("%s decoder over %d rows: %v", enc, rows, err)
	}
	return d
}

// pickSel draws a selection of n rows in which each is kept with the given
// probability, and returns it with the values of cv it keeps, from row at.
func pickSel(rng *rand.Rand, cv *records.ColumnVector, at, n int, density float64) ([]bool, []records.Value) {
	sel := make([]bool, n)
	var want []records.Value
	for i := range sel {
		if sel[i] = rng.Float64() < density; sel[i] {
			want = append(want, cv.Value(at+i))
		}
	}
	return sel, want
}

func sameValues(t *testing.T, what string, got *records.ColumnVector, from int, want []records.Value) {
	t.Helper()
	if got.Len()-from != len(want) {
		t.Fatalf("%s: %d values, want %d", what, got.Len()-from, len(want))
	}
	for i, w := range want {
		if !got.Value(from + i).Equal(w) {
			t.Fatalf("%s: value %d is %v, want %v", what, i, got.Value(from+i), w)
		}
	}
}

// decodeAllWays reads one encoded column through every access style the
// decoder has — boxed next, bulk decodeInto and decodeCodes in blocks that
// straddle frames, decodeFiltered at selection densities from nothing to
// everything, and a random interleaving of all of them with skip — and fails
// the test on any divergence from the vector it was encoded from.
func decodeAllWays(t *testing.T, rng *rand.Rand, cv *records.ColumnVector, enc Encoding, payload []byte) {
	t.Helper()
	n := cv.Len()
	open := func() *colDecoder { return openPayload(t, cv.Kind, enc, n, payload) }
	what := func(how string) string { return fmt.Sprintf("%s over %d rows, %s", enc, n, how) }
	slice := func(at, k int) []records.Value {
		vals := make([]records.Value, k)
		for i := range vals {
			vals[i] = cv.Value(at + i)
		}
		return vals
	}

	d := open()
	for i := 0; i < n; i++ {
		v, err := d.next()
		if err != nil {
			t.Fatalf("%s: %v", what(fmt.Sprintf("next at %d", i)), err)
		}
		if !v.Equal(cv.Value(i)) {
			t.Fatalf("%s: got %v want %v", what(fmt.Sprintf("next at %d", i)), v, cv.Value(i))
		}
	}
	if _, err := d.next(); err == nil {
		t.Fatalf("%s: no error", what("next past the last row"))
	}

	for _, blockRows := range []int{100, 1024, 1500} {
		bulk, codes := open(), open()
		out := records.NewColumnVector(cv.Kind, n)
		var raw []uint32
		for at := 0; at < n; at += blockRows {
			k := min(blockRows, n-at)
			if err := bulk.decodeInto(out, k); err != nil {
				t.Fatalf("%s: %v", what(fmt.Sprintf("decodeInto %d at %d", k, at)), err)
			}
			if codes.dictSize() > 0 {
				var err error
				if raw, err = codes.decodeCodes(raw, k); err != nil {
					t.Fatalf("%s: %v", what(fmt.Sprintf("decodeCodes %d at %d", k, at)), err)
				}
			}
		}
		sameValues(t, what(fmt.Sprintf("decodeInto by %d", blockRows)), out, 0, slice(0, n))
		for i, c := range raw {
			if !codes.dictValue(int(c)).Equal(cv.Value(i)) {
				t.Fatalf("%s: code %d is %v, want %v", what(fmt.Sprintf("decodeCodes by %d, row %d", blockRows, i)), c, codes.dictValue(int(c)), cv.Value(i))
			}
		}
		if err := bulk.decodeInto(out, 1); err == nil {
			t.Fatalf("%s: no error", what("decodeInto past the last row"))
		}

		for _, density := range []float64{0, 0.01, 0.5, 1} {
			d, out := open(), records.NewColumnVector(cv.Kind, 0)
			for at := 0; at < n; at += blockRows {
				sel, want := pickSel(rng, cv, at, min(blockRows, n-at), density)
				from := out.Len()
				if err := d.decodeFiltered(out, sel); err != nil {
					t.Fatalf("%s: %v", what(fmt.Sprintf("decodeFiltered at %d", at)), err)
				}
				sameValues(t, what(fmt.Sprintf("decodeFiltered by %d at %d, density %v", blockRows, at, density)), out, from, want)
			}
		}
	}

	// Any interleaving of the access styles reads the same column.
	d = open()
	out := records.NewColumnVector(cv.Kind, 0)
	for at := 0; at < n; {
		k := min(rng.Intn(300), n-at)
		from := out.Len()
		switch op := rng.Intn(5); {
		case op == 0:
			if err := d.skip(k); err != nil {
				t.Fatalf("%s: %v", what(fmt.Sprintf("skip %d at %d", k, at)), err)
			}
		case op == 1:
			if err := d.decodeInto(out, k); err != nil {
				t.Fatalf("%s: %v", what(fmt.Sprintf("decodeInto %d at %d", k, at)), err)
			}
			sameValues(t, what(fmt.Sprintf("interleaved decodeInto %d at %d", k, at)), out, from, slice(at, k))
		case op == 2:
			sel, want := pickSel(rng, cv, at, k, []float64{0.02, 0.3, 0.9}[rng.Intn(3)])
			if err := d.decodeFiltered(out, sel); err != nil {
				t.Fatalf("%s: %v", what(fmt.Sprintf("decodeFiltered %d at %d", k, at)), err)
			}
			sameValues(t, what(fmt.Sprintf("interleaved decodeFiltered %d at %d", k, at)), out, from, want)
		case op == 3 && d.dictSize() > 0:
			raw, err := d.decodeCodes(nil, k)
			if err != nil {
				t.Fatalf("%s: %v", what(fmt.Sprintf("decodeCodes %d at %d", k, at)), err)
			}
			d.appendFromCodes(out, raw, nil)
			sameValues(t, what(fmt.Sprintf("interleaved decodeCodes %d at %d", k, at)), out, from, slice(at, k))
		default:
			if k = min(k, 1); k == 1 {
				v, err := d.next()
				if err != nil || !v.Equal(cv.Value(at)) {
					t.Fatalf("%s: %v, %v, want %v", what(fmt.Sprintf("interleaved next at %d", at)), v, err, cv.Value(at))
				}
			}
		}
		at += k
	}
	if err := d.skip(1); err == nil {
		t.Fatalf("%s: no error", what("skip past the last row"))
	}
}

// TestEncodingRoundTripQuick: for randomly shaped columns, whatever encoding
// the writer picks must decode back to the original values through every
// access style. Column shapes are chosen to actually exercise all four
// encodings, which uniformly random data would not.
func TestEncodingRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(2600) + 1

		cols := []*records.ColumnVector{}

		// Near-monotone ints (sequence keys) → frame-of-reference once there
		// are too many to be worth a dictionary.
		cv := records.NewColumnVector(records.KindInt64, n)
		v := rng.Int63n(1 << 30)
		for i := 0; i < n; i++ {
			v += rng.Int63n(200) - 20 // mostly increasing, occasional dips
			cv.Ints = append(cv.Ints, v)
		}
		cols = append(cols, cv)

		// Random large ints, including negatives.
		cv = records.NewColumnVector(records.KindInt64, n)
		for i := 0; i < n; i++ {
			cv.Ints = append(cv.Ints, rng.Int63n(1<<40)-(1<<39))
		}
		cols = append(cols, cv)

		// Low-cardinality ints → dict-i64.
		cv = records.NewColumnVector(records.KindInt64, n)
		for i := 0; i < n; i++ {
			cv.Ints = append(cv.Ints, 19920101+rng.Int63n(40)*100)
		}
		cols = append(cols, cv)

		// Low-cardinality strings → dict.
		vocab := make([]string, rng.Intn(8)+1)
		for i := range vocab {
			vocab[i] = fmt.Sprintf("label-%d-%d", i, rng.Intn(1000))
		}
		cv = records.NewColumnVector(records.KindString, n)
		for i := 0; i < n; i++ {
			cv.Strs = append(cv.Strs, vocab[rng.Intn(len(vocab))])
		}
		cols = append(cols, cv)

		// High-cardinality strings → plain (dictionary never pays).
		cv = records.NewColumnVector(records.KindString, n)
		for i := 0; i < n; i++ {
			cv.Strs = append(cv.Strs, fmt.Sprintf("unique-%d-%d", i, rng.Int63()))
		}
		cols = append(cols, cv)

		// Floats and bools always stay plain.
		cv = records.NewColumnVector(records.KindFloat64, n)
		for i := 0; i < n; i++ {
			cv.Floats = append(cv.Floats, rng.NormFloat64()*1e6)
		}
		cols = append(cols, cv)
		cv = records.NewColumnVector(records.KindBool, n)
		for i := 0; i < n; i++ {
			cv.Bools = append(cv.Bools, rng.Intn(2) == 0)
		}
		cols = append(cols, cv)

		for _, cv := range cols {
			enc, payload, _ := encodeColumn(cv)
			decodeAllWays(t, rng, cv, enc, payload)
			// The plain encoding is the universal fallback and must always
			// work.
			decodeAllWays(t, rng, cv, EncPlain, encodePlain(cv, 0))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// codecRows are the column lengths the packed layouts are held to: nothing,
// one row, and one row either side of one, two and four frames.
var codecRows = []int{0, 1, 1023, 1024, 1025, 2049, 4097}

// TestFrameOfReferenceWidths packs integer columns at every width the format
// allows, over every length in codecRows, with negative and extreme minima,
// and reads them back every way. Across the widths and lengths the packed
// regions end 0 to 7 bytes short of a whole word, so the zero-padded tail
// load is exercised at every remainder.
func TestFrameOfReferenceWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	tails := map[int]bool{}
	for w := uint(1); w <= maxPackedWidth; w++ {
		for _, n := range codecRows {
			for _, lo := range []int64{0, -5, -1 << 40, math.MinInt64, math.MaxInt64 - (1<<w - 1)} {
				cv := records.NewColumnVector(records.KindInt64, n)
				for i := 0; i < n; i++ {
					off := rng.Int63n(1 << w)
					switch i % forFrameRows { // every frame spans the full width
					case 0:
						off = 0
					case 1:
						off = 1<<w - 1
					}
					cv.Ints = append(cv.Ints, lo+off)
				}
				frames, size := measureFrames(cv.Ints)
				if size == math.MaxInt {
					t.Fatalf("width %d, %d rows from %d: not framed", w, n, lo)
				}
				for i, f := range frames {
					// A one-row last frame holds its minimum alone.
					if want := w; f.w != want && !(n%forFrameRows == 1 && i == len(frames)-1 && f.w == 1) {
						t.Fatalf("width %d, %d rows: frame %d packed at %d bits", w, n, i, f.w)
					}
				}
				payload := packFrames(cv.Ints, frames, size)
				if len(payload) != size {
					t.Fatalf("width %d, %d rows: payload of %d bytes measured as %d", w, n, len(payload), size)
				}
				if n > 0 {
					tails[packedLen(n%forFrameRows, w)%8] = true
				}
				decodeAllWays(t, rng, cv, EncFOR, payload)
			}
		}
	}
	for r := 0; r < 8; r++ {
		if !tails[r] {
			t.Errorf("no last frame ended %d bytes into a word", r)
		}
	}
}

// TestDictionaryWidths does the same for both dictionary layouts at every
// code width up to the cap's 12 bits, with dictionaries that fill their width
// exactly and that leave the top codes unused.
func TestDictionaryWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for w := uint(1); w <= 12; w++ {
		for _, entries := range []int{1<<(w-1) + 1, 1 << w} {
			for _, n := range codecRows {
				ints := records.NewColumnVector(records.KindInt64, n)
				strs := records.NewColumnVector(records.KindString, n)
				di, ds := newDictBuilder[int64](n), newDictBuilder[string](n)
				for i := 0; i < n; i++ {
					e := rng.Intn(entries)
					if i < entries {
						e = i // every entry appears if the column is long enough
					}
					v, s := int64(e)*1_000_003-7_000, fmt.Sprintf("entry-%d", e)
					ints.Ints, strs.Strs = append(ints.Ints, v), append(strs.Strs, s)
					di.add(v, varintLen(v))
					ds.add(s, 1+len(s))
				}
				if n >= entries && (codeWidth(len(di.entries)) != w || codeWidth(len(ds.entries)) != w) {
					t.Fatalf("%d entries over %d rows: code widths %d and %d, want %d",
						entries, n, codeWidth(len(di.entries)), codeWidth(len(ds.entries)), w)
				}
				ip, sp := di.payload(binary.AppendVarint), ds.payload(appendDictString)
				if len(ip) != di.payloadSize() || len(sp) != ds.payloadSize() {
					t.Fatalf("%d entries over %d rows: payloads of %d and %d bytes measured as %d and %d",
						entries, n, len(ip), len(sp), di.payloadSize(), ds.payloadSize())
				}
				decodeAllWays(t, rng, ints, EncDictI64, ip)
				decodeAllWays(t, rng, strs, EncDict, sp)
			}
		}
	}
}

// TestEncodeColumnChoices pins the encoding selector's behavior on canonical
// column shapes. The selector compares sizes it computes without building
// the candidates, so every case also checks the arithmetic against the
// payload that was built.
func TestEncodeColumnChoices(t *testing.T) {
	ints := func(n int, f func(i int) int64) *records.ColumnVector {
		cv := records.NewColumnVector(records.KindInt64, n)
		for i := 0; i < n; i++ {
			cv.Ints = append(cv.Ints, f(i))
		}
		return cv
	}
	strs := func(n int, f func(i int) string) *records.ColumnVector {
		cv := records.NewColumnVector(records.KindString, n)
		for i := 0; i < n; i++ {
			cv.Strs = append(cv.Strs, f(i))
		}
		return cv
	}
	floats := records.NewColumnVector(records.KindFloat64, 10)
	for i := 0; i < 10; i++ {
		floats.Floats = append(floats.Floats, float64(i)*1.5)
	}
	for _, c := range []struct {
		name string
		cv   *records.ColumnVector
		want Encoding
	}{
		{"sequence ints past the dictionary cap", ints(6000, func(i int) int64 { return int64(19940101 + i) }), EncFOR},
		{"negative high-cardinality ints", ints(6000, func(i int) int64 { return int64(-3_000_000 + 7*i) }), EncFOR},
		{"low-cardinality ints", ints(1000, func(i int) int64 { return int64(i%11) * 1000 }), EncDictI64},
		{"a dictionary that beats plain is preferred to narrower frames", ints(5000, func(i int) int64 { return int64(1000 + i/7) }), EncDictI64},
		{"one value repeated", ints(3000, func(int) int64 { return 42 }), EncDictI64},
		{"one row", ints(1, func(int) int64 { return -9 }), EncPlain},
		{"no rows", ints(0, nil), EncPlain},
		{"a frame spanning more than 56 bits", ints(6000, func(i int) int64 {
			if i == 2500 {
				return math.MaxInt64
			}
			return int64(-i) << 20
		}), EncPlain},
		{"low-cardinality strings", strs(1000, func(i int) string { return []string{"ASIA", "AMERICA", "EUROPE"}[i%3] }), EncDict},
		{"high-cardinality strings", strs(1000, func(i int) string { return fmt.Sprintf("customer-%08d", i) }), EncPlain},
		{"floats", floats, EncPlain},
	} {
		enc, payload, dict := encodeColumn(c.cv)
		if enc != c.want {
			t.Errorf("%s encoded as %s, want %s", c.name, enc, c.want)
		}
		if (dict != nil) != (enc == EncDict || enc == EncDictI64) {
			t.Errorf("%s: %s with dictionary entries %v", c.name, enc, dict != nil)
		}
		if cap(payload) != len(payload) && c.cv.Kind != records.KindFloat64 {
			t.Errorf("%s: %s payload of %d bytes built in a buffer sized %d: the measured size is off", c.name, enc, len(payload), cap(payload))
		}
		d := openPayload(t, c.cv.Kind, enc, c.cv.Len(), payload)
		out := records.NewColumnVector(c.cv.Kind, c.cv.Len())
		if err := d.decodeInto(out, c.cv.Len()); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := 0; i < c.cv.Len(); i++ {
			if !out.Value(i).Equal(c.cv.Value(i)) {
				t.Fatalf("%s: row %d reads %v, want %v", c.name, i, out.Value(i), c.cv.Value(i))
			}
		}
	}
}

// TestDictRefusesHighCardinality: past maxDictEntries distinct values the
// dictionary builder must stop rather than build an unbounded table, however
// much smaller than plain a dictionary would have been.
func TestDictRefusesHighCardinality(t *testing.T) {
	cv := records.NewColumnVector(records.KindString, 0)
	for rep := 0; rep < 4; rep++ {
		for i := 0; i <= maxDictEntries; i++ {
			cv.Strs = append(cv.Strs, fmt.Sprintf("a-rather-long-repeated-value-%d", i))
		}
	}
	if enc, _, dict := encodeColumn(cv); enc != EncPlain || dict != nil {
		t.Fatalf("%d distinct values encoded as %s", maxDictEntries+1, enc)
	}
	d := newDictBuilder[string](0)
	for _, s := range cv.Strs {
		if !d.full {
			d.add(s, 0)
		}
	}
	if !d.full || len(d.entries) != maxDictEntries {
		t.Fatalf("dictionary builder holds %d entries, full %v, after %d distinct values", len(d.entries), d.full, maxDictEntries+1)
	}
}

// TestOpenColumnFileRejects: column files that checksum correctly and lie —
// about their row count, a frame's width, the length of their packed codes,
// their last frame — or carry an encoding id no reader accepts any more.
// Each must come back as an error naming the file, from opening it or from
// reading it, without a panic and without an allocation sized by the lie.
func TestOpenColumnFileRejects(t *testing.T) {
	const path = "/t/p-00000/c.col"
	frame := func(min int64, w byte, packed int) []byte {
		return append(append(binary.AppendVarint(nil, min), w), make([]byte, packed)...)
	}
	dictI64 := func(entries int, packed []byte) []byte {
		buf := binary.AppendUvarint(nil, uint64(entries))
		for i := 0; i < entries; i++ {
			buf = binary.AppendVarint(buf, int64(i))
		}
		return append(buf, packed...)
	}
	for _, c := range []struct {
		name string
		rows int
		enc  Encoding
		body []byte
		want string // in the error
	}{
		{"2^40 rows in a ten-byte payload", 1 << 40, EncFOR, frame(0, 8, 8), "rows claimed"},
		{"2^40 plain rows", 1 << 40, EncPlain, []byte{byte(records.KindInt64), 2}, "rows claimed"},
		{"frame width 0", 8, EncFOR, frame(5, 0, 1), "width 0"},
		{"frame width 57", 8, EncFOR, frame(5, 57, 57), "width 57"},
		{"short last frame", 1032, EncFOR, append(frame(0, 8, 1024), frame(0, 8, 7)...), "packed bytes"},
		{"last frame cut in its header", 1032, EncFOR, append(frame(0, 8, 1024), 0x80), "bad header"},
		{"a frame too many rows would need", 2049, EncFOR, append(frame(0, 8, 1024), frame(0, 8, 1024)...), "bad header"},
		{"bytes after the last frame", 8, EncFOR, frame(5, 8, 9), "after the last frame"},
		{"codes a byte longer than rows x width", 10, EncDictI64, dictI64(3, make([]byte, 4)), "need 3 bytes"},
		{"codes a byte shorter than rows x width", 10, EncDictI64, dictI64(3, make([]byte, 2)), "need 3 bytes"},
		{"more entries than the cap", 10, EncDictI64, binary.AppendUvarint(nil, maxDictEntries+1), "dictionary size"},
		{"more entries than bytes", 10, EncDictI64, binary.AppendUvarint(nil, 300), "dictionary size"},
		{"retired varint dictionary", 3, 1, []byte{1, 1, 'x', 0, 0, 0}, "id 1"},
		{"retired delta", 3, 2, []byte{2, 2, 2}, "id 2"},
		{"retired varint int dictionary", 3, 3, []byte{1, 8, 0, 0, 0}, "id 3"},
		{"unknown encoding", 3, 9, []byte{1, 2, 3}, "id 9"},
		{"frame-of-reference strings", 8, EncFOR, frame(5, 8, 8), "encoding on"},
	} {
		kind := records.KindInt64
		if c.name == "frame-of-reference strings" {
			kind = records.KindString
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := openColumnFile(path, columnFile(c.rows, c.enc, c.body), kind)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %s and saying %q", c.name, err, path, c.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("%s: %d bytes allocated on the way to the error", c.name, grew)
		}
	}

	// Codes beyond the dictionary open (only their count is checked there)
	// and fail where they are read, whichever way that is.
	bad := columnFile(10, EncDictI64, dictI64(3, []byte{0xFF, 0xFF, 0xFF}))
	reads := map[string]func(d *colDecoder) error{
		"next":       func(d *colDecoder) error { _, err := d.next(); return err },
		"decodeInto": func(d *colDecoder) error { return d.decodeInto(records.NewColumnVector(records.KindInt64, 0), 10) },
		"decodeCodes": func(d *colDecoder) error {
			_, err := d.decodeCodes(nil, 10)
			return err
		},
		"decodeFiltered, dense": func(d *colDecoder) error {
			return d.decodeFiltered(records.NewColumnVector(records.KindInt64, 0), []bool{true, true, true, true, true, true, true, true, true, true})
		},
		"decodeFiltered, sparse": func(d *colDecoder) error {
			return d.decodeFiltered(records.NewColumnVector(records.KindInt64, 0), []bool{false, false, false, false, false, false, false, true, false, false})
		},
	}
	for name, read := range reads {
		d, err := openColumnFile(path, bad, records.KindInt64)
		if err != nil {
			t.Fatalf("codes beyond the dictionary: open: %v", err)
		}
		if err := read(d); err == nil || !strings.Contains(err.Error(), "dictionary code") {
			t.Errorf("codes beyond the dictionary, %s: err = %v", name, err)
		}
	}
}
