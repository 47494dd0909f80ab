package colstore

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/records"
)

var tblSchema = records.NewSchema(
	records.F("id", records.KindInt64),
	records.F("name", records.KindString),
	records.F("price", records.KindFloat64),
)

func makeRow(i int) records.Record {
	return records.Make(tblSchema,
		records.Int(int64(i)),
		records.Str(fmt.Sprintf("item-%03d", i)),
		records.Float(float64(i)*1.5),
	)
}

func genRows(n int) func(emit func(records.Record) error) error {
	return func(emit func(records.Record) error) error {
		for i := 0; i < n; i++ {
			if err := emit(makeRow(i)); err != nil {
				return err
			}
		}
		return nil
	}
}

type env struct {
	cluster *cluster.Cluster
	fs      *hdfs.FileSystem
	engine  *mr.Engine
}

func newEnv(workers int, blockSize int64) *env {
	c := cluster.New(cluster.Testing(workers))
	fs := hdfs.New(c, hdfs.Options{BlockSize: blockSize, Seed: 17})
	return &env{cluster: c, fs: fs, engine: mr.NewEngine(c, fs, mr.Options{})}
}

// scanAll runs an identity map-only job over the input and returns the rows.
func scanAll(t *testing.T, e *env, input mr.InputFormat, conf *mr.JobConf) []records.Record {
	t.Helper()
	out := &mr.MemoryOutput{}
	job := &mr.Job{
		Name:   "scan",
		Conf:   conf,
		Input:  input,
		Output: out,
		NewMapper: func() mr.Mapper {
			return mr.MapperFunc(func(_, v records.Record, c mr.Collector) error {
				return c.Collect(v, records.Record{})
			})
		},
	}
	if _, err := e.engine.Submit(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	var rows []records.Record
	for _, kv := range out.Pairs() {
		rows = append(rows, kv.Key)
	}
	return rows
}

func sortByID(rows []records.Record) map[int64]records.Record {
	m := make(map[int64]records.Record, len(rows))
	for _, r := range rows {
		m[r.Get("id").Int64()] = r
	}
	return m
}

func TestSchemaRoundTrip(t *testing.T) {
	e := newEnv(2, 1024)
	if err := WriteSchema(e.fs, "/t", tblSchema); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSchema(e.fs, "/t")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(tblSchema) {
		t.Errorf("schema = %v", got)
	}
	if _, err := ReadSchema(e.fs, "/missing"); err == nil {
		t.Error("expected error for missing schema")
	}
	// Malformed schema contents.
	if err := e.fs.WriteFile("/bad/"+SchemaFileName, "", []byte("one two three\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSchema(e.fs, "/bad"); err == nil {
		t.Error("expected error for malformed schema")
	}
	if err := e.fs.WriteFile("/badkind/"+SchemaFileName, "", []byte("a int32\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSchema(e.fs, "/badkind"); err == nil {
		t.Error("expected error for unknown kind")
	}
}

func TestRowFileRoundTrip(t *testing.T) {
	e := newEnv(3, 256)
	const n = 200
	written, err := WriteRowTable(e.fs, "/rows", tblSchema, genRows(n))
	if err != nil {
		t.Fatal(err)
	}
	if written != n {
		t.Errorf("wrote %d rows", written)
	}
	rows := scanAll(t, e, &RowInput{Dir: "/rows"}, nil)
	if len(rows) != n {
		t.Fatalf("read %d rows, want %d", len(rows), n)
	}
	byID := sortByID(rows)
	for i := 0; i < n; i++ {
		if byID[int64(i)].Compare(makeRow(i)) != 0 {
			t.Errorf("row %d = %v", i, byID[int64(i)])
		}
	}
}

func TestRowFileMultipleSplits(t *testing.T) {
	e := newEnv(3, 256)
	if _, err := WriteRowTable(e.fs, "/rows", tblSchema, genRows(500)); err != nil {
		t.Fatal(err)
	}
	in := &RowInput{Dir: "/rows"}
	jctx := &mr.JobContext{FS: e.fs, Cluster: e.cluster, Conf: mr.NewJobConf(), Counters: mr.NewCounters()}
	splits, err := in.Splits(jctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) < 2 {
		t.Errorf("want multiple splits for a multi-block file, got %d", len(splits))
	}
	for _, s := range splits {
		if len(s.Locations()) == 0 {
			t.Error("split has no locations")
		}
	}
}

func TestRCFileRoundTripAndPruning(t *testing.T) {
	e := newEnv(3, 512)
	const n = 300
	if _, err := WriteRCTable(e.fs, "/rc", tblSchema, 64, genRows(n)); err != nil {
		t.Fatal(err)
	}

	// Full scan.
	rows := scanAll(t, e, &RCInput{Dir: "/rc"}, nil)
	if len(rows) != n {
		t.Fatalf("read %d rows", len(rows))
	}
	byID := sortByID(rows)
	for i := 0; i < n; i += 37 {
		if byID[int64(i)].Compare(makeRow(i)) != 0 {
			t.Errorf("row %d = %v", i, byID[int64(i)])
		}
	}

	// Pruned scan reads fewer bytes.
	before := e.fs.Metrics().Snapshot()
	pruned := scanAll(t, e, &RCInput{Dir: "/rc", Columns: []string{"id"}}, nil)
	after := e.fs.Metrics().Snapshot()
	if len(pruned) != n {
		t.Fatalf("pruned read %d rows", len(pruned))
	}
	if pruned[0].Len() != 1 || pruned[0].Schema().Field(0).Name != "id" {
		t.Errorf("pruned schema = %v", pruned[0].Schema())
	}
	prunedBytes := (after.LocalBytesRead + after.RemoteBytesRead) - (before.LocalBytesRead + before.RemoteBytesRead)

	before = e.fs.Metrics().Snapshot()
	scanAll(t, e, &RCInput{Dir: "/rc"}, nil)
	after = e.fs.Metrics().Snapshot()
	fullBytes := (after.LocalBytesRead + after.RemoteBytesRead) - (before.LocalBytesRead + before.RemoteBytesRead)
	if prunedBytes >= fullBytes {
		t.Errorf("pruned scan read %d bytes, full scan %d; pruning saved nothing", prunedBytes, fullBytes)
	}
}

func TestCIFRoundTrip(t *testing.T) {
	e := newEnv(3, 1024)
	const n = 250
	written, err := WriteCIFTable(e.fs, "/cif", tblSchema, 64, genRows(n))
	if err != nil {
		t.Fatal(err)
	}
	if written != n {
		t.Errorf("wrote %d", written)
	}
	parts, err := ListPartitions(e.fs, "/cif")
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 { // ceil(250/64)
		t.Errorf("partitions = %v", parts)
	}
	rows := scanAll(t, e, &CIFInput{Dir: "/cif"}, nil)
	if len(rows) != n {
		t.Fatalf("read %d rows", len(rows))
	}
	byID := sortByID(rows)
	for i := 0; i < n; i++ {
		if byID[int64(i)].Compare(makeRow(i)) != 0 {
			t.Fatalf("row %d = %v", i, byID[int64(i)])
		}
	}
}

func TestCIFColumnPruningSavesIO(t *testing.T) {
	e := newEnv(3, 1024)
	if _, err := WriteCIFTable(e.fs, "/cif", tblSchema, 64, genRows(400)); err != nil {
		t.Fatal(err)
	}
	readBytes := func(cols []string) int64 {
		before := e.fs.Metrics().Snapshot()
		rows := scanAll(t, e, &CIFInput{Dir: "/cif", Columns: cols}, nil)
		after := e.fs.Metrics().Snapshot()
		if len(rows) != 400 {
			t.Fatalf("scan(%v) read %d rows", cols, len(rows))
		}
		return (after.LocalBytesRead + after.RemoteBytesRead) - (before.LocalBytesRead + before.RemoteBytesRead)
	}
	one := readBytes([]string{"id"})
	all := readBytes(nil)
	if one*2 >= all {
		t.Errorf("1-column scan read %d bytes vs %d for all columns; expected a large saving", one, all)
	}
}

func TestCIFColocation(t *testing.T) {
	e := newEnv(5, 1024)
	if _, err := WriteCIFTable(e.fs, "/cif", tblSchema, 64, genRows(300)); err != nil {
		t.Fatal(err)
	}
	parts, _ := ListPartitions(e.fs, "/cif")
	for _, pdir := range parts {
		var want string
		for _, col := range tblSchema.Names() {
			path := fmt.Sprintf("%s/%s.col", pdir, col)
			locs, err := e.fs.BlockLocations(path, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			hosts := fmt.Sprint(locs[0].Hosts)
			if want == "" {
				want = hosts
			} else if hosts != want {
				t.Errorf("%s placed at %s, siblings at %s", path, hosts, want)
			}
		}
	}
}

func TestCIFBlockReader(t *testing.T) {
	e := newEnv(2, 1024)
	const n = 100
	if _, err := WriteCIFTable(e.fs, "/cif", tblSchema, 64, genRows(n)); err != nil {
		t.Fatal(err)
	}
	in := &CIFInput{Dir: "/cif", BlockRows: 30}
	jctx := &mr.JobContext{FS: e.fs, Cluster: e.cluster, Conf: mr.NewJobConf(), Counters: mr.NewCounters()}
	splits, err := in.Splits(jctx)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range splits {
		reader, err := in.Open(s, taskCtx(e, jctx))
		if err != nil {
			t.Fatal(err)
		}
		br, ok := reader.(BlockReader)
		if !ok {
			t.Fatal("CIF reader must implement BlockReader")
		}
		for {
			blk, ok, err := br.NextBlock()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if blk.Len() == 0 || blk.Len() > 30 {
				t.Errorf("block len = %d", blk.Len())
			}
			ids := blk.Col(blk.Schema().MustIndex("id")).Ints
			names := blk.Col(blk.Schema().MustIndex("name")).Strs
			for i := range ids {
				if names[i] != fmt.Sprintf("item-%03d", ids[i]) {
					t.Errorf("row mismatch: id=%d name=%s", ids[i], names[i])
				}
			}
			total += blk.Len()
		}
		reader.Close()
	}
	if total != n {
		t.Errorf("block reader produced %d rows, want %d", total, n)
	}
}

func taskCtx(e *env, jctx *mr.JobContext) *mr.TaskContext {
	// Build a minimal task context through a throwaway map-only job is
	// heavyweight; instead use the engine path in scanAll for integration
	// and construct contexts directly here.
	return mr.NewTestTaskContext(jctx, e.cluster.Nodes()[0])
}

func TestMultiCIFPacking(t *testing.T) {
	e := newEnv(3, 1024)
	if _, err := WriteCIFTable(e.fs, "/cif", tblSchema, 32, genRows(320)); err != nil {
		t.Fatal(err)
	}
	conf := mr.NewJobConf().SetInt(mr.ConfMultiSplitPack, 4)
	in := &CIFInput{Dir: "/cif"}
	jctx := &mr.JobContext{FS: e.fs, Cluster: e.cluster, Conf: conf, Counters: mr.NewCounters()}
	splits, err := in.Splits(jctx)
	if err != nil {
		t.Fatal(err)
	}
	rawParts, _ := ListPartitions(e.fs, "/cif")
	if len(splits) >= len(rawParts) {
		t.Errorf("packing produced %d splits from %d partitions", len(splits), len(rawParts))
	}
	// Multi-splits expose independent readers and preserve all rows.
	total := 0
	for _, s := range splits {
		ms, ok := s.(*MultiSplit)
		if !ok {
			t.Fatalf("split type %T", s)
		}
		// All packed parts share the primary host.
		for _, p := range ms.Parts {
			if len(p.Hosts) > 0 && len(ms.Parts[0].Hosts) > 0 && p.Hosts[0] != ms.Parts[0].Hosts[0] {
				t.Error("pack mixes primary hosts")
			}
		}
		reader, err := in.Open(s, taskCtx(e, jctx))
		if err != nil {
			t.Fatal(err)
		}
		mrdr, ok := reader.(mr.MultiReader)
		if !ok {
			t.Fatal("multi-split reader must implement mr.MultiReader")
		}
		children, err := mrdr.Readers()
		if err != nil {
			t.Fatal(err)
		}
		if len(children) != len(ms.Parts) {
			t.Errorf("children = %d, parts = %d", len(children), len(ms.Parts))
		}
		for _, c := range children {
			for {
				_, _, ok, err := c.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				total++
			}
		}
		reader.Close()
	}
	if total != 320 {
		t.Errorf("multi-split readers produced %d rows", total)
	}
	// Sequential Next over a fresh multi-split reader also yields all rows.
	reader, _ := in.Open(splits[0], taskCtx(e, jctx))
	count := 0
	for {
		_, _, ok, err := reader.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		count++
	}
	ms := splits[0].(*MultiSplit)
	want := 0
	for range ms.Parts {
		want += 32
	}
	if count != want {
		t.Errorf("sequential multi reader rows = %d, want %d", count, want)
	}
}

func TestCIFRollIn(t *testing.T) {
	e := newEnv(2, 1024)
	if _, err := WriteCIFTable(e.fs, "/cif", tblSchema, 64, genRows(100)); err != nil {
		t.Fatal(err)
	}
	w, err := AppendPartitions(e.fs, "/cif", 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 150; i++ {
		if err := w.Append(makeRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rows := scanAll(t, e, &CIFInput{Dir: "/cif"}, nil)
	if len(rows) != 150 {
		t.Errorf("after roll-in: %d rows", len(rows))
	}
}

func TestRowOutputFormat(t *testing.T) {
	e := newEnv(2, 512)
	if _, err := WriteRowTable(e.fs, "/src", tblSchema, genRows(50)); err != nil {
		t.Fatal(err)
	}
	// Copy /src into /dst through a map-only job with RowOutput.
	job := &mr.Job{
		Name:   "copy",
		Input:  &RowInput{Dir: "/src"},
		Output: &RowOutput{Dir: "/dst", Schema: tblSchema},
		NewMapper: func() mr.Mapper {
			return mr.MapperFunc(func(_, v records.Record, c mr.Collector) error {
				return c.Collect(records.Record{}, v)
			})
		},
	}
	if _, err := e.engine.Submit(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	rows := scanAll(t, e, &RowInput{Dir: "/dst"}, nil)
	if len(rows) != 50 {
		t.Errorf("copied %d rows", len(rows))
	}
	byID := sortByID(rows)
	for i := 0; i < 50; i++ {
		if byID[int64(i)].Compare(makeRow(i)) != 0 {
			t.Errorf("row %d mismatch", i)
		}
	}
}

func TestCIFEmptyTableError(t *testing.T) {
	e := newEnv(1, 512)
	if err := WriteSchema(e.fs, "/empty", tblSchema); err != nil {
		t.Fatal(err)
	}
	in := &CIFInput{Dir: "/empty"}
	jctx := &mr.JobContext{FS: e.fs, Cluster: e.cluster, Conf: mr.NewJobConf(), Counters: mr.NewCounters()}
	if _, err := in.Splits(jctx); err == nil {
		t.Error("expected error for empty CIF table")
	}
}

func TestCIFUnknownColumn(t *testing.T) {
	e := newEnv(1, 512)
	if _, err := WriteCIFTable(e.fs, "/cif", tblSchema, 64, genRows(10)); err != nil {
		t.Fatal(err)
	}
	in := &CIFInput{Dir: "/cif", Columns: []string{"nope"}}
	jctx := &mr.JobContext{FS: e.fs, Cluster: e.cluster, Conf: mr.NewJobConf(), Counters: mr.NewCounters()}
	if _, err := in.Splits(jctx); err == nil {
		t.Error("expected error for unknown column")
	}
}

func TestCIFRollOut(t *testing.T) {
	e := newEnv(2, 1024)
	if _, err := WriteCIFTable(e.fs, "/cif", tblSchema, 50, genRows(200)); err != nil {
		t.Fatal(err)
	}
	parts, err := ListPartitions(e.fs, "/cif")
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 {
		t.Fatalf("partitions = %v", parts)
	}
	// Retire the two oldest partitions (rows 0..99): nothing pins them, so
	// they leave visibility and the disk at once, as a new content version.
	reg := NewSnapshots(e.fs)
	if err := reg.Retire("/cif", parts[:2]); err != nil {
		t.Fatal(err)
	}
	rows := scanAll(t, e, &CIFInput{Dir: "/cif"}, nil)
	if len(rows) != 100 {
		t.Fatalf("after roll-out: %d rows", len(rows))
	}
	byID := sortByID(rows)
	if _, old := byID[0]; old {
		t.Error("rolled-out row still visible")
	}
	if byID[150].Compare(makeRow(150)) != 0 {
		t.Error("surviving rows corrupted")
	}
	if files := e.fs.List(parts[0] + "/"); len(files) != 0 || reg.Versions("/cif")[0] != 1 {
		t.Errorf("rolled-out partition left %v behind at content version %d", files, reg.Versions("/cif")[0])
	}
}

func TestCIFChecksumDetectsCorruption(t *testing.T) {
	e := newEnv(2, 1024)
	if _, err := WriteCIFTable(e.fs, "/cif", tblSchema, 64, genRows(64)); err != nil {
		t.Fatal(err)
	}
	// Corrupt one column replica by rewriting the file with a flipped byte.
	path := "/cif/p-00000/name.col"
	data, err := e.fs.ReadAll(path, "")
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	e.fs.Delete(path)
	if err := e.fs.WriteFile(path, "", data); err != nil {
		t.Fatal(err)
	}
	in := &CIFInput{Dir: "/cif"}
	jctx := &mr.JobContext{FS: e.fs, Cluster: e.cluster, Conf: mr.NewJobConf(), Counters: mr.NewCounters()}
	splits, err := in.Splits(jctx)
	if err != nil {
		t.Fatal(err)
	}
	r, err := in.Open(splits[0], mr.NewTestTaskContext(jctx, e.cluster.Nodes()[0]))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, _, _, err = r.Next()
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("expected checksum error, got %v", err)
	}
}
