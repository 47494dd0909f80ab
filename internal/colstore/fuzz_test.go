package colstore

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"clydesdale/internal/records"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz from the current encoders")

// fuzzKinds maps FuzzOpenColumnFile's second argument to the kind the file
// is opened as.
var fuzzKinds = []records.Kind{records.KindInt64, records.KindString, records.KindFloat64, records.KindBool}

// FuzzOpenColumnFile: whatever the bytes, opening a partition's column file
// and reading it every way the scan does — boxed, in bulk, under dense and
// sparse selections, as raw codes, with skips in between — returns values
// or an error naming the file. It does not panic, it reads no row count
// larger than eight times the bytes behind it, and when the row-at-a-time
// read gets through a packed column, every other way reads the same values.
// A mutated file almost never checksums, so each input is also read with its
// trailer rewritten to match: the checks behind the CRC get the fuzzing.
func FuzzOpenColumnFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, k byte) {
		kind := fuzzKinds[int(k)%len(fuzzKinds)]
		readColumnFileEveryWay(t, data, kind)
		if len(data) >= 4 {
			body := data[:len(data)-4]
			readColumnFileEveryWay(t, binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body)), kind)
		}
	})
}

func readColumnFileEveryWay(t *testing.T, data []byte, kind records.Kind) {
	const path = "/fuzz/p-00000/c.col"
	f, err := openColumnFile(path, data, kind)
	if err != nil {
		if !strings.Contains(err.Error(), path) {
			t.Fatalf("open error does not name the file: %v", err)
		}
		return
	}
	d := f.cursor()
	n, body := d.rows, d.buf
	if n > 8*len(data) {
		t.Fatalf("%d rows claimed by a %d-byte file", n, len(data))
	}
	rewind := func() { d.buf, d.pos = body, 0 }

	vals := make([]records.Value, 0, min(n, len(data)))
	for len(vals) < n {
		v, err := d.next()
		if err != nil {
			break
		}
		vals = append(vals, v)
	}
	// A plain stream may hold values of other kinds than the column's,
	// which read boxed and do not read typed; only a packed column has
	// to read alike every way.
	whole := len(vals) == n && d.enc != EncPlain
	agree := func(how string, cv *records.ColumnVector, err error, want func(i int) bool) {
		if !whole {
			return
		}
		if err != nil {
			t.Fatalf("%s column of %d rows read by next, %s: %v", d.enc, n, how, err)
		}
		k := 0
		for i, v := range vals {
			if want(i) {
				if k >= cv.Len() || !cv.Value(k).Equal(v) {
					t.Fatalf("%s column, %s: row %d missing or different, next read %v", d.enc, how, i, v)
				}
				k++
			}
		}
		if k != cv.Len() {
			t.Fatalf("%s column, %s: %d values, want %d", d.enc, how, cv.Len(), k)
		}
	}
	all := func(int) bool { return true }

	rewind()
	cv := records.NewColumnVector(kind, 0)
	err = nil
	for at := 0; at < n && err == nil; at += 1000 {
		err = d.decodeInto(cv, min(1000, n-at))
	}
	agree("in bulk", cv, err, all)

	for _, every := range []int{2, 16} {
		rewind()
		cv, err = records.NewColumnVector(kind, 0), nil
		for at := 0; at < n && err == nil; at += 1500 {
			sel := make([]bool, min(1500, n-at))
			for i := range sel {
				sel[i] = (at+i)%every == 1
			}
			err = d.decodeFiltered(cv, sel)
		}
		agree(fmt.Sprintf("every %d rows", every), cv, err, func(i int) bool { return i%every == 1 })
	}

	if d.dictSize() > 0 {
		rewind()
		codes, err := d.decodeCodes(nil, n)
		for _, c := range codes {
			if err == nil && int(c) >= d.dictSize() {
				t.Fatalf("code %d outside a %d-entry dictionary", c, d.dictSize())
			}
		}
		cv = records.NewColumnVector(kind, 0)
		if err == nil {
			d.appendFromCodes(cv, codes, nil)
		}
		agree("as codes", cv, err, all)
	}

	// skip, a block, skip, a gather, one row: rows 7-19, then 28-127 in
	// every third, then 128, of each run of 129.
	rewind()
	cv, err = records.NewColumnVector(kind, 0), nil
	sel := make([]bool, 100)
	for i := range sel {
		sel[i] = i%3 == 0
	}
	at := 0
	for ; at+129 <= n && err == nil; at += 129 {
		if err = d.skip(7); err == nil {
			err = d.decodeInto(cv, 13)
		}
		if err == nil {
			err = d.skip(8)
		}
		if err == nil {
			err = d.decodeFiltered(cv, sel)
		}
		if err == nil {
			var v records.Value
			if v, err = d.next(); err == nil {
				err = appendCoerced(cv, v)
			}
		}
	}
	agree("interleaved", cv, err, func(i int) bool {
		r := i % 129
		return i < at && (r >= 7 && r < 20 || r >= 28 && r < 128 && (r-28)%3 == 0 || r == 128)
	})
}

// fuzzSeed is one corpus entry: the bytes, and for FuzzOpenColumnFile the
// kind selector after them.
type fuzzSeed struct {
	data []byte
	kind []byte
}

func corpusEntry(data []byte, kind ...byte) fuzzSeed { return fuzzSeed{data, kind} }

// marshal is the entry as `go test` stores a corpus file.
func (s fuzzSeed) marshal() string {
	out := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s.data)
	for _, k := range s.kind {
		out += fmt.Sprintf("byte(%q)\n", k)
	}
	return out
}

func flipBit(data []byte, at int) []byte {
	out := append([]byte(nil), data...)
	out[at] ^= 0x10
	return out
}

// columnFileCorpus is FuzzOpenColumnFile's seed corpus: one good file per
// encoding and per kind of plain stream, and files damaged or lying in each
// of the ways the opener has a check for.
func columnFileCorpus() map[string]fuzzSeed {
	const n = forFrameRows + 76 // two frames, the second short
	ints := func(f func(i int) int64) *records.ColumnVector {
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
	file := func(cv *records.ColumnVector, want Encoding) []byte {
		enc, payload, _ := encodeColumn(cv, nil)
		if enc != want {
			panic(fmt.Sprintf("seed column encoded as %s, want %s", enc, want))
		}
		return columnFile(cv.Len(), enc, payload)
	}
	forCol := ints(func(i int) int64 { return int64(5_000_000 + 37*i - i%9*1000) })
	_, forPayload, _ := encodeColumn(forCol, nil)
	floats := records.NewColumnVector(records.KindFloat64, 40)
	bools := records.NewColumnVector(records.KindBool, 40)
	for i := 0; i < 40; i++ {
		floats.Floats = append(floats.Floats, float64(i)/8)
		bools.Bools = append(bools.Bools, i%3 == 0)
	}
	var nulls []byte
	for _, v := range []records.Value{records.Int(7), records.Null, records.Int(-7)} {
		nulls = records.AppendValue(nulls, v)
	}
	// The same rows as the writer without an encoding byte framed them.
	retired := binary.AppendUvarint([]byte("CCF1"), 3)
	retired = append(retired, nulls...)
	retired = binary.LittleEndian.AppendUint32(retired, crc32.ChecksumIEEE(retired))

	goodFOR := file(forCol, EncFOR)
	goodDict := file(strs(n, func(i int) string { return fmt.Sprintf("name-%d", i%9) }), EncDict)
	return map[string]fuzzSeed{
		"good-for":          corpusEntry(goodFOR, 0),
		"good-dict":         corpusEntry(goodDict, 1),
		"good-dict-i64":     corpusEntry(file(ints(func(i int) int64 { return int64(i%13) * 100 }), EncDictI64), 0),
		"good-plain-string": corpusEntry(file(strs(150, func(i int) string { return fmt.Sprintf("text-%06d", i) }), EncPlain), 1),
		"good-plain-float":  corpusEntry(file(floats, EncPlain), 2),
		"good-plain-bool":   corpusEntry(file(bools, EncPlain), 3),
		"good-plain-nulls":  corpusEntry(columnFile(3, EncPlain, nulls), 0),
		"retired-magic":     corpusEntry(retired, 0),
		"truncated":         corpusEntry(goodFOR[:len(goodFOR)/2], 0),
		"flipped":           corpusEntry(flipBit(goodDict, len(goodDict)/2), 1),
		"wrong-kind":        corpusEntry(goodDict, 0),
		"oversized-rows":    corpusEntry(columnFile(1<<40, EncFOR, forPayload), 0),
		"oversized-width": corpusEntry(columnFile(8, EncFOR,
			append(append(binary.AppendVarint(nil, 5), 57), make([]byte, 57)...)), 0),
		"oversized-frame-count": corpusEntry(columnFile(5*forFrameRows, EncFOR, forPayload), 0),
		"oversized-dictionary": corpusEntry(columnFile(n, EncDict,
			append(binary.AppendUvarint(nil, 4000), "\x06name-0\x06name-1"...)), 1),
		"short-last-frame": corpusEntry(columnFile(n, EncFOR, forPayload[:len(forPayload)-3]), 0),
		"trailing-bytes":   corpusEntry(columnFile(n, EncFOR, append(append([]byte(nil), forPayload...), 0, 0)), 0),
		"codes-past-dictionary": corpusEntry(columnFile(10, EncDictI64,
			[]byte{3, 0, 2, 4, 0xFF, 0xFF, 0xFF}), 0),
		"retired-encoding": corpusEntry(columnFile(3, 2, []byte{2, 2, 2}), 0),
	}
}

// columnSetCorpus is FuzzOpenColumnSet's seed corpus.
func columnSetCorpus(t testing.TB) map[string]fuzzSeed {
	rows := columnSetTestRows(64)
	good := encodeColumnSet(t, columnSetTestSchema, rows)
	set, err := OpenColumnSet(good, columnSetTestSchema)
	if err != nil {
		t.Fatal(err)
	}
	// relie rebuilds the good blob, checksums and all, with its row count or
	// one column changed: what a writer bug or a crafted blob would produce.
	relie := func(rows int, edit func(cols []columnBlob)) []byte {
		cols := make([]columnBlob, len(set.cols))
		for i, m := range set.cols {
			cols[i] = columnBlob{kind: m.kind, enc: m.enc, payload: set.payloads[m.off : m.off+m.len]}
			if m.boxed {
				cols[i].flags = colBoxed
			}
		}
		edit(cols)
		return assembleColumnSet(rows, cols)
	}
	dirEnd := int(set.DirBytes())
	lastCol := set.cols[len(set.cols)-1]

	wrongKind := records.NewSchema(
		records.F("key", records.KindInt64), records.F("code", records.KindString),
		records.F("name", records.KindString), records.F("text", records.KindString),
		records.F("ratio", records.KindFloat64), records.F("flag", records.KindBool),
		records.F("maybe", records.KindInt64))
	var other []records.Record
	for i := 0; i < 8; i++ {
		other = append(other, records.Make(wrongKind, records.Int(int64(i)), records.Str("x"), records.Str("n"),
			records.Str(fmt.Sprint(i)), records.Float(1), records.Bool(true), records.Int(int64(i))))
	}
	return map[string]fuzzSeed{
		"good":             corpusEntry(good),
		"empty-table":      corpusEntry(encodeColumnSet(t, columnSetTestSchema, nil)),
		"flip-directory":   corpusEntry(flipBit(good, 12)),
		"flip-payload":     corpusEntry(flipBit(good, dirEnd+(len(good)-dirEnd)/2)),
		"truncated-dir":    corpusEntry(good[:20]),
		"truncated-column": corpusEntry(good[:len(good)-lastCol.len-lastCol.len/2]),
		"wrong-kind":       corpusEntry(encodeColumnSet(t, wrongKind, other)),
		"oversized-rows":   corpusEntry(relie(1<<40, func([]columnBlob) {})),
		"oversized-length": corpusEntry(relieDirectory(good, func(dir []byte) []byte {
			_, n := binary.Uvarint(dir) // rows
			_, m := binary.Uvarint(dir[n:])
			pos := n + m + 3 // first column's offset
			_, o := binary.Uvarint(dir[pos:])
			_, l := binary.Uvarint(dir[pos+o:])
			out := append([]byte(nil), dir[:pos+o]...)
			out = binary.AppendUvarint(out, 1<<50)
			return append(out, dir[pos+o+l:]...)
		})),
		"oversized-dictionary": corpusEntry(relie(64, func(cols []columnBlob) {
			// "name": a dictionary claiming 4000 entries in front of nine.
			p := cols[2].payload
			cols[2].payload = append(binary.AppendUvarint(nil, 4000), p[1:]...)
		})),
		"oversized-width": corpusEntry(relie(64, func(cols []columnBlob) {
			cols[0].enc = EncFOR
			cols[0].payload = append(append(binary.AppendVarint(nil, 1000), 57), make([]byte, 456)...)
		})),
		"retired-encoding": corpusEntry(relie(64, func(cols []columnBlob) {
			cols[0].enc = 2
			cols[0].payload = make([]byte, 64)
		})),
	}
}

// relieDirectory rebuilds a column set with its directory edited and the
// directory checksum made to match.
func relieDirectory(good []byte, edit func(dir []byte) []byte) []byte {
	dirLen := int(binary.LittleEndian.Uint32(good[4:]))
	dir := edit(append([]byte(nil), good[8:8+dirLen]...))
	out := append([]byte(nil), good[:4]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(dir)))
	out = append(out, dir...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	return append(out, good[8+dirLen+4:]...)
}

// TestFuzzSeedCorpus holds the checked-in seed corpora to what the current
// encoders write: a corpus of files in a layout the decoders no longer
// accept would still pass (every entry an error) and seed nothing. Every
// "good" entry must read without error and every "retired" one be refused as
// retired; `-update-corpus` rewrites the files.
func TestFuzzSeedCorpus(t *testing.T) {
	files, sets := columnFileCorpus(), columnSetCorpus(t)
	for name, seed := range files {
		good, retired := strings.HasPrefix(name, "good"), strings.HasPrefix(name, "retired")
		if !good && !retired {
			continue
		}
		f, err := openColumnFile(name, seed.data, fuzzKinds[seed.kind[0]])
		if retired {
			if err == nil || !strings.Contains(err.Error(), "is retired") {
				t.Fatalf("%s: opened, or refused without saying why: %v", name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d := f.cursor()
		for i := 0; i < d.rows; i++ {
			if _, err := d.next(); err != nil {
				t.Fatalf("%s: row %d: %v", name, i, err)
			}
		}
	}
	for _, name := range []string{"good", "empty-table"} {
		set, err := OpenColumnSet(sets[name].data, columnSetTestSchema)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for c := 0; c < columnSetTestSchema.Len(); c++ {
			col, err := set.Column(c)
			if err == nil {
				_, err = col.Values(nil, nil)
			}
			if err != nil {
				t.Fatalf("%s: column %d: %v", name, c, err)
			}
		}
	}

	footers, rowFooters := rcFooterCorpus(t), rowFooterCorpus(t)
	if _, err := decodeRCFooterOf(footers["good"].data); err != nil {
		t.Fatalf("rc footer corpus: good: %v", err)
	}
	if groups, err := decodeRowFooterOf(rowFooters["good"].data); err != nil || len(groups) < 2 {
		t.Fatalf("row footer corpus: good: %d groups, %v; want several", len(groups), err)
	}

	for target, want := range map[string]map[string]fuzzSeed{"FuzzOpenColumnFile": files, "FuzzOpenColumnSet": sets,
		"FuzzRCFooter": footers, "FuzzRowFooter": rowFooters} {
		dir := filepath.Join("testdata", "fuzz", target)
		if *updateCorpus {
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for name, seed := range want {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(seed.marshal()), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var have []string
		for _, e := range entries {
			have = append(have, e.Name())
			got, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if seed, ok := want[e.Name()]; ok && string(got) != seed.marshal() {
				t.Errorf("%s/%s is not what the current encoders write: rerun with -update-corpus", dir, e.Name())
			}
		}
		names := make([]string, 0, len(want))
		for name := range want {
			names = append(names, name)
		}
		sort.Strings(names)
		if strings.Join(have, " ") != strings.Join(names, " ") {
			t.Errorf("%s holds %v, want %v: rerun with -update-corpus", dir, have, names)
		}
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
		f, err := openColumnFile(path, bad, records.KindInt64)
		if err != nil {
			t.Fatalf("codes beyond the dictionary: open: %v", err)
		}
		if err := read(f.cursor()); err == nil || !strings.Contains(err.Error(), "dictionary code") {
			t.Errorf("codes beyond the dictionary, %s: err = %v", name, err)
		}
	}
}
