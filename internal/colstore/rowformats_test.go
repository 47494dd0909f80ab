package colstore

import (
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/records"
)

var intsSchema = records.NewSchema(
	records.F("a", records.KindInt64), records.F("b", records.KindInt64), records.F("c", records.KindInt64))

func genIntRows(n int) func(emit func(records.Record) error) error {
	return func(emit func(records.Record) error) error {
		for i := 0; i < n; i++ {
			if err := emit(records.Make(intsSchema, records.Int(int64(i)), records.Int(int64(-i)), records.Int(int64(i)*1000))); err != nil {
				return err
			}
		}
		return nil
	}
}

// openOnlySplit opens the reader of a one-split input.
func openOnlySplit(t *testing.T, e *env, in mr.InputFormat) mr.RecordReader {
	t.Helper()
	jctx := &mr.JobContext{FS: e.fs, Cluster: e.cluster, Counters: mr.NewCounters()}
	splits, err := in.Splits(jctx)
	if err != nil || len(splits) != 1 {
		t.Fatalf("%d splits, %v; want one", len(splits), err)
	}
	r, err := in.Open(splits[0], mr.NewTestTaskContext(jctx, e.cluster.Nodes()[0]))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRowAndRCReadersReuseTheirRow is the mr.RecordReader contract from the
// producing side: rowReader and rcReader hand out one record, refilled by
// every Next, so over integer columns a row costs no allocation after the
// first of its row group, and a consumer that keeps rows has to clone them.
func TestRowAndRCReadersReuseTheirRow(t *testing.T) {
	const n = 3000
	e := newEnv(2, 1<<20)
	if _, err := WriteRowTable(e.fs, "/rows", intsSchema, genIntRows(n)); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteRCTable(e.fs, "/rc", intsSchema, n, genIntRows(n)); err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string]mr.InputFormat{"row": &RowInput{Dir: "/rows"}, "rc": &RCInput{Dir: "/rc"}} {
		r := openOnlySplit(t, e, in)
		_, first, ok, err := r.Next()
		if err != nil || !ok {
			t.Fatalf("%s: first row: %v %v", name, ok, err)
		}
		kept, cloned := first, first.Clone()
		next := int64(1)
		allocs := testing.AllocsPerRun(n/2, func() {
			_, rec, ok, err := r.Next()
			if err != nil || !ok || rec.At(0).Int64() != next || rec.At(2).Int64() != next*1000 {
				t.Fatalf("%s: row %d read as %v (%v, %v)", name, next, rec, ok, err)
			}
			next++
		})
		if allocs != 0 {
			t.Errorf("%s: Next allocates %.1f times a row over integer columns, want 0", name, allocs)
		}
		if kept.At(0).Int64() != next-1 || cloned.At(0).Int64() != 0 {
			t.Errorf("%s: a kept row reads %d and its clone %d; want the reader's last row (%d) and 0", name, kept.At(0).Int64(), cloned.At(0).Int64(), next-1)
		}
		r.Close()
	}
}

// TestHostileFootersAreRefused: a footer's own counts and lengths size
// nothing before they are held to the bytes there are. Each case is a
// well-framed file (length and magic intact) whose footer lies.
func TestHostileFootersAreRefused(t *testing.T) {
	uv := func(vs ...uint64) []byte {
		var out []byte
		for _, v := range vs {
			out = binary.AppendUvarint(out, v)
		}
		return out
	}
	data := make([]byte, 100)
	for name, c := range map[string]struct {
		footer []byte
		rc     bool
		want   string
	}{
		"row: exabyte group count":   {uv(1 << 60), false, "groups claimed"},
		"row: count past the footer": {uv(3, 0, 10, 1), false, "groups claimed"},
		"row: group past the data":   {uv(1, 90, 11, 1), false, "runs past"},
		"row: length past the data":  {uv(1, 0, 1<<40, 1), false, "exceeds"},
		"row: cut short":             {append(uv(1, 0, 10), 0x80), false, "truncated"},
		"rc: exabyte group count":    {uv(1 << 60), true, "groups claimed"},
		"rc: count past the footer":  {uv(2, 0, 1, 1, 1, 1), true, "groups claimed"},
		"rc: chunk past the data":    {uv(1, 0, 1, 1<<40, 1, 1), true, "exceeds"},
		"rc: chunks past the data":   {uv(1, 40, 1, 30, 30, 30), true, "runs past"},
		"rc: cut short":              {append(uv(1, 0, 1, 1, 1), 0x80), true, "truncated"},
	} {
		e := newEnv(1, 1<<16)
		format, path := rowFormat, "/t/part-00000"
		if c.rc {
			format = rcFormat(3)
		}
		file := append(append([]byte(nil), data...), c.footer...)
		file = binary.LittleEndian.AppendUint32(file, uint32(len(c.footer)))
		file = append(file, format.magic[:]...)
		if err := e.fs.WriteFile(path, "", file); err != nil {
			t.Fatal(err)
		}
		r, err := e.fs.Open(path, "")
		if err != nil {
			t.Fatal(err)
		}
		_, err = format.readFooter(r, path)
		if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: got %v, want an error naming %s and saying %q", name, err, path, c.want)
		}
	}
}

// rcFooterCorpus is FuzzRCFooter's seed corpus: a good file and the three
// ways its footer can lie about it.
func rcFooterCorpus(t testing.TB) map[string]fuzzSeed {
	c := cluster.New(cluster.Testing(1))
	fs := hdfs.New(c, hdfs.Options{Seed: 5})
	if _, err := WriteRCTable(fs, "/rc", intsSchema, 40, genIntRows(100)); err != nil {
		t.Fatal(err)
	}
	good, err := fs.ReadAll("/rc/part-00000", "")
	if err != nil {
		t.Fatal(err)
	}
	flen := int(binary.LittleEndian.Uint32(good[len(good)-8:]))
	body, footer := good[:len(good)-8-flen], good[len(good)-8-flen:len(good)-8]
	reframe := func(footer []byte) []byte {
		out := append(append([]byte(nil), body...), footer...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(footer)))
		return append(out, rcMagic[:]...)
	}
	_, countLen := binary.Uvarint(footer)
	return map[string]fuzzSeed{
		"good":            corpusEntry(good),
		"truncated":       corpusEntry(reframe(footer[:len(footer)-2])),
		"oversized-count": corpusEntry(reframe(append(binary.AppendUvarint(nil, 1<<40), footer[countLen:]...))),
		"oversized-chunk": corpusEntry(reframe(append(append([]byte(nil), footer[:countLen+2]...),
			append(binary.AppendUvarint(nil, 1<<40), footer[countLen+3:]...)...))),
	}
}

// FuzzRCFooter: whatever the bytes of an RC file, reading its footer and
// then its rows returns rows or an error naming the file. It does not panic
// and sizes nothing by a number the file merely claims: the groups a footer
// yields lie inside the file, so a reader's chunk buffers do too.
func FuzzRCFooter(f *testing.F) {
	c := cluster.New(cluster.Testing(1))
	fs := hdfs.New(c, hdfs.Options{Seed: 5})
	jctx := &mr.JobContext{FS: fs, Cluster: c, Counters: mr.NewCounters()}
	const path = "/fuzz/part-00000"
	f.Fuzz(func(t *testing.T, data []byte) {
		fs.Delete(path)
		if err := fs.WriteFile(path, "", data); err != nil {
			t.Fatal(err)
		}
		in := &RCInput{Dir: "/fuzz", Schema: intsSchema}
		splits, err := in.Splits(jctx)
		if err != nil {
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("footer error does not name the file: %v", err)
			}
			return
		}
		for _, s := range splits {
			for _, g := range s.(*groupSplit).groups {
				end := g.offset
				for _, l := range g.chunkLens {
					end += l
				}
				if g.offset < 0 || g.rows < 0 || end > int64(len(data)) {
					t.Fatalf("group %+v accepted in a %d-byte file", g, len(data))
				}
			}
			r, err := in.Open(s, mr.NewTestTaskContext(jctx, c.Nodes()[0]))
			if err != nil {
				t.Fatal(err)
			}
			for rows := 0; ; rows++ {
				if _, _, ok, err := r.Next(); !ok || err != nil {
					break
				}
				if rows > len(data) {
					t.Fatalf("more than %d rows out of a %d-byte file", rows, len(data))
				}
			}
			r.Close()
		}
	})
}

// rowFooterCorpus is FuzzRowFooter's seed corpus: a good file of several
// groups and the four ways its footer can lie about it.
func rowFooterCorpus(t testing.TB) map[string]fuzzSeed {
	c := cluster.New(cluster.Testing(1))
	fs := hdfs.New(c, hdfs.Options{Seed: 5})
	w, err := NewRowWriter(fs, "/rows/part-00000", "", intsSchema, 400)
	if err != nil {
		t.Fatal(err)
	}
	if err := genIntRows(100)(w.Append); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := fs.ReadAll("/rows/part-00000", "")
	if err != nil {
		t.Fatal(err)
	}
	flen := int(binary.LittleEndian.Uint32(good[len(good)-8:]))
	body, footer := good[:len(good)-8-flen], good[len(good)-8-flen:len(good)-8]
	reframe := func(footer []byte) []byte {
		out := append(append([]byte(nil), body...), footer...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(footer)))
		return append(out, rowFormat.magic[:]...)
	}
	_, countLen := binary.Uvarint(footer)
	_, lengthLen := binary.Uvarint(footer[countLen+1:]) // the first group's, after its offset 0
	return map[string]fuzzSeed{
		"good":            corpusEntry(good),
		"truncated":       corpusEntry(reframe(footer[:len(footer)-2])),
		"oversized-count": corpusEntry(reframe(append(binary.AppendUvarint(nil, 1<<40), footer[countLen:]...))),
		"oversized-length": corpusEntry(reframe(append(append([]byte(nil), footer[:countLen+1]...),
			append(binary.AppendUvarint(nil, 1<<40), footer[countLen+1+lengthLen:]...)...))),
		"overrun": corpusEntry(reframe(append(append(append([]byte(nil), footer[:countLen]...),
			binary.AppendUvarint(nil, uint64(len(body)-1))...), footer[countLen+1:]...))),
	}
}

// FuzzRowFooter is FuzzRCFooter's twin for row files, the files of every
// dimension table and every Hive intermediate: whatever the bytes, splitting,
// opening and reading the file returns rows or an error naming the file. It
// does not panic, and every group a footer yields lies inside the file.
func FuzzRowFooter(f *testing.F) {
	c := cluster.New(cluster.Testing(1))
	fs := hdfs.New(c, hdfs.Options{Seed: 5})
	jctx := &mr.JobContext{FS: fs, Cluster: c, Counters: mr.NewCounters()}
	const path = "/fuzz/part-00000"
	f.Fuzz(func(t *testing.T, data []byte) {
		fs.Delete(path)
		if err := fs.WriteFile(path, "", data); err != nil {
			t.Fatal(err)
		}
		in := &RowInput{Dir: "/fuzz", Schema: intsSchema}
		splits, err := in.Splits(jctx)
		if err != nil {
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("footer error does not name the file: %v", err)
			}
			return
		}
		for _, s := range splits {
			for _, g := range s.(*groupSplit).groups {
				if g.offset < 0 || g.length < 0 || g.rows < 0 || g.offset+g.length > int64(len(data)) {
					t.Fatalf("group %+v accepted in a %d-byte file", g, len(data))
				}
			}
			r, err := in.Open(s, mr.NewTestTaskContext(jctx, c.Nodes()[0]))
			if err != nil {
				t.Fatal(err)
			}
			for rows := 0; ; rows++ {
				_, _, ok, err := r.Next()
				if err != nil && !strings.Contains(err.Error(), path) {
					t.Fatalf("read error does not name the file: %v", err)
				}
				if !ok || err != nil {
					break
				}
				if rows > len(data) {
					t.Fatalf("more than %d rows out of a %d-byte file", rows, len(data))
				}
			}
			r.Close()
		}
	})
}

// decodeRCFooterOf decodes the footer of an intsSchema RC file held in memory.
func decodeRCFooterOf(file []byte) ([]groupMeta, error) {
	return decodeFooterOf(rcFormat(intsSchema.Len()), file)
}

// decodeRowFooterOf decodes the footer of a row file held in memory.
func decodeRowFooterOf(file []byte) ([]groupMeta, error) { return decodeFooterOf(rowFormat, file) }

func decodeFooterOf(f groupFormat, file []byte) ([]groupMeta, error) {
	flen := int(binary.LittleEndian.Uint32(file[len(file)-8:]))
	return f.decodeFooter(file[len(file)-8-flen:len(file)-8], int64(len(file)-8-flen))
}

// TestSkippedColumnsAreChecked: a projected row read steps over the columns
// it does not keep, but a row that is corrupt in one of them fails it as it
// fails a full read: a truncated string, an unknown kind byte, a malformed
// varint, a missing field, a short float, a field count off the schema's.
func TestSkippedColumnsAreChecked(t *testing.T) {
	schema := records.NewSchema(records.F("a", records.KindInt64), records.F("b", records.KindString),
		records.F("c", records.KindFloat64), records.F("d", records.KindInt64))
	good := records.AppendRecord(nil, records.Make(schema, records.Int(7), records.Str("hello"), records.Float(1.5), records.Int(-3)))
	readFirst := func(cols []string, buf []byte) (records.Record, error) {
		in := &RowInput{Schema: schema, Columns: cols}
		if err := in.resolve(nil); err != nil {
			t.Fatal(err)
		}
		rr := &rowReader{in: in, buf: buf}
		_, rec, _, err := rr.Next()
		return rec, err
	}
	rec, err := readFirst([]string{"d", "a"}, good)
	if err != nil || rec.Len() != 2 || rec.At(0).Int64() != -3 || rec.At(1).Int64() != 7 {
		t.Fatalf("projected read of a good row: %v, %v", rec, err)
	}
	// Byte 0 is the field count, 1-2 field a, 3-9 field b ("hello"), 10-18
	// field c, 19-20 field d.
	corrupt := map[string][]byte{
		"truncated string": good[:6],
		"unknown kind":     append(append(slices.Clone(good[:3]), 0x7f), good[4:]...),
		"bad varint":       append(append(slices.Clone(good[:19]), byte(records.KindInt64)), 0x80),
		"missing field":    good[:19],
		"short float":      good[:14],
		"field count":      append([]byte{5}, good[1:]...),
	}
	for name, buf := range corrupt {
		if _, err := readFirst(nil, buf); err == nil {
			t.Fatalf("%s: the full read accepts %x", name, buf)
		}
		if _, err := readFirst([]string{"a"}, buf); err == nil {
			t.Errorf("%s: reading only a accepts %x", name, buf)
		}
	}
}
