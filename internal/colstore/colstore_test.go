package colstore

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/expr"
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
func scanAll(t *testing.T, e *env, input mr.InputFormat) []records.Record {
	t.Helper()
	out := &mr.MemoryOutput{}
	job := &mr.Job{
		Name:   "scan",
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
	rows := scanAll(t, e, &RowInput{Dir: "/rows"})
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
	jctx := &mr.JobContext{FS: e.fs, Cluster: e.cluster, Counters: mr.NewCounters()}
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
	rows := scanAll(t, e, &RCInput{Dir: "/rc"})
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
	pruned := scanAll(t, e, &RCInput{Dir: "/rc", Columns: []string{"id"}})
	after := e.fs.Metrics().Snapshot()
	if len(pruned) != n {
		t.Fatalf("pruned read %d rows", len(pruned))
	}
	if pruned[0].Len() != 1 || pruned[0].Schema().Field(0).Name != "id" {
		t.Errorf("pruned schema = %v", pruned[0].Schema())
	}
	prunedBytes := (after.LocalBytesRead + after.RemoteBytesRead) - (before.LocalBytesRead + before.RemoteBytesRead)

	before = e.fs.Metrics().Snapshot()
	scanAll(t, e, &RCInput{Dir: "/rc"})
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
	rows := scanAll(t, e, &CIFInput{Dir: "/cif"})
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
		rows := scanAll(t, e, &CIFInput{Dir: "/cif", Columns: cols})
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
	jctx := &mr.JobContext{FS: e.fs, Cluster: e.cluster, Counters: mr.NewCounters()}
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

// writePartitions writes a CIF table at dir with one partition per entry of
// rows, of that many rows each; ids run 0..sum(rows)-1.
func writePartitions(t *testing.T, e *env, dir string, rows []int) {
	t.Helper()
	id := 0
	for i, n := range rows {
		gen := func(emit func(records.Record) error) error {
			for ; n > 0; n-- {
				if err := emit(makeRow(id)); err != nil {
					return err
				}
				id++
			}
			return nil
		}
		if i == 0 {
			if _, err := WriteCIFTable(e.fs, dir, tblSchema, int64(n), gen); err != nil {
				t.Fatal(err)
			}
			continue
		}
		w, err := AppendPartitions(e.fs, dir, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		if err := gen(w.Append); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMultiCIFPacking holds the MultiCIF packing rule over partition sizes.
// With a 1 KiB block and two map threads the target is 2 KiB; a 64-row
// partition is about 1.4 KiB, a 4-row one about 110 bytes and a 128-row one
// about 2.8 KiB (each case checks its sizes are in the regime it names).
func TestMultiCIFPacking(t *testing.T) {
	const blockSize = 1024
	rep := func(n, rows int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = rows
		}
		return out
	}
	cases := []struct {
		name    string
		threads int
		rows    []int
		// uniform: every partition is at least target/threads bytes, so the
		// packs are exactly the old ones of threads partitions each. tiny:
		// strictly fewer packs than the old rule.
		uniform, tiny bool
	}{
		{name: "uniform", threads: 2, rows: rep(12, 64), uniform: true},
		{name: "tiny", threads: 2, rows: rep(24, 4), tiny: true},
		{name: "above-target", threads: 2, rows: append(rep(5, 4), append([]int{128}, rep(6, 4)...)...)},
		{name: "mixed", threads: 2, rows: []int{4, 64, 4, 4, 128, 8, 32, 4, 64, 16, 4, 128, 4, 4, 32, 8}},
		{name: "remainder", threads: 3, rows: rep(13, 64), uniform: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(3, blockSize)
			writePartitions(t, e, "/cif", tc.rows)
			in := &CIFInput{Dir: "/cif"}
			conf := mr.Conf{MapThreads: tc.threads}
			jctx := &mr.JobContext{FS: e.fs, Cluster: e.cluster, Conf: conf, Counters: mr.NewCounters()}
			splits, err := in.Splits(jctx)
			if err != nil {
				t.Fatal(err)
			}
			target := int64(tc.threads) * blockSize
			// The partitions in order, grouped by primary host: what the packs
			// of each host must cut, in order.
			byHost := map[string][]string{}
			size := map[string]int64{}
			raw, err := (&CIFInput{Dir: "/cif"}).Splits(&mr.JobContext{FS: e.fs, Cluster: e.cluster})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range raw {
				p := s.(*CIFSplit)
				byHost[p.Hosts[0]] = append(byHost[p.Hosts[0]], p.PartitionDir)
				size[p.PartitionDir] = p.bytes
				if tc.uniform && p.bytes < target/int64(tc.threads) {
					t.Fatalf("uniform case: %s is %d bytes, under target/threads %d", p.PartitionDir, p.bytes, target/int64(tc.threads))
				}
				if tc.tiny && p.bytes > target/8 {
					t.Fatalf("tiny case: %s is %d bytes", p.PartitionDir, p.bytes)
				}
			}

			packs := map[string][][]string{}
			var hosts []string
			for _, s := range splits {
				ms, ok := s.(*MultiSplit)
				if !ok {
					t.Fatalf("split type %T, want *MultiSplit", s)
				}
				h := ms.Parts[0].Hosts[0]
				var dirs []string
				var bytes int64
				for _, p := range ms.Parts {
					if p.Hosts[0] != h {
						t.Errorf("pack mixes primary hosts %s and %s", h, p.Hosts[0])
					}
					dirs = append(dirs, p.PartitionDir)
					bytes += p.bytes
				}
				if bytes != ms.Length() {
					t.Errorf("pack Length %d, parts sum to %d", ms.Length(), bytes)
				}
				if bytes > target && len(ms.Parts) > tc.threads {
					t.Errorf("pack of %d partitions holds %d bytes, over the %d target with more than %d partitions", len(ms.Parts), bytes, target, tc.threads)
				}
				if _, ok := packs[h]; !ok {
					hosts = append(hosts, h)
				}
				packs[h] = append(packs[h], dirs)
			}

			oldTasks := 0
			for _, h := range hosts {
				want := byHost[h]
				var got []string
				for i, dirs := range packs[h] {
					got = append(got, dirs...)
					// A pack is closed only when it cannot take the next one.
					if i < len(packs[h])-1 && len(got) < len(want) {
						var bytes int64
						for _, d := range dirs {
							bytes += size[d]
						}
						if next := want[len(got)]; len(dirs) < tc.threads || bytes+size[next] <= target {
							t.Errorf("%s: pack %v closed before %s (%d+%d bytes of %d)", h, dirs, next, bytes, size[next], target)
						}
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s: packs cover %v, want every partition once in order %v", h, got, want)
				}
				// The old rule: threads partitions a pack, whatever their size.
				var old [][]string
				for i := 0; i < len(want); i += tc.threads {
					old = append(old, want[i:min(i+tc.threads, len(want))])
				}
				oldTasks += len(old)
				if len(packs[h]) > len(old) {
					t.Errorf("%s: %d packs from %d partitions, more than the old %d", h, len(packs[h]), len(want), len(old))
				}
				if tc.uniform && fmt.Sprint(packs[h]) != fmt.Sprint(old) {
					t.Errorf("%s: packs %v, want the old packs %v", h, packs[h], old)
				}
			}
			if len(hosts) != len(byHost) {
				t.Errorf("packs on %d hosts, partitions on %d", len(hosts), len(byHost))
			}
			if tc.tiny && len(splits) >= oldTasks {
				t.Errorf("%d packs of tiny partitions, want fewer than the old %d", len(splits), oldTasks)
			}

			// Every row is read once through the per-partition readers, and
			// once through sequential Next.
			total := 0
			for _, n := range tc.rows {
				total += n
			}
			for _, perPart := range []bool{true, false} {
				seen := make(map[int64]int)
				for _, s := range splits {
					reader, err := in.Open(s, taskCtx(e, jctx))
					if err != nil {
						t.Fatal(err)
					}
					readers := []mr.RecordReader{reader}
					if perPart {
						if readers, err = reader.(mr.MultiReader).Readers(); err != nil {
							t.Fatal(err)
						}
						if len(readers) != len(s.(*MultiSplit).Parts) {
							t.Errorf("%d readers for %d parts", len(readers), len(s.(*MultiSplit).Parts))
						}
					}
					for _, rd := range readers {
						for {
							_, v, ok, err := rd.Next()
							if err != nil {
								t.Fatal(err)
							}
							if !ok {
								break
							}
							seen[v.Get("id").Int64()]++
						}
					}
					if err := reader.Close(); err != nil {
						t.Fatal(err)
					}
				}
				if len(seen) != total {
					t.Errorf("per-partition readers %v: %d distinct rows, want %d", perPart, len(seen), total)
				}
				for id, n := range seen {
					if n != 1 || id < 0 || id >= int64(total) {
						t.Errorf("per-partition readers %v: row %d read %d times", perPart, id, n)
					}
				}
			}
		})
	}
}

// TestCIFReaderCloseReleases: Close drops a drained partition's cursors and
// hands its scan scratch back to the input's pool, a second Close (the
// task's, after the runner's) is harmless, and a reader read only through
// Next takes no scratch.
func TestCIFReaderCloseReleases(t *testing.T) {
	e := newEnv(2, 1024)
	writePartitions(t, e, "/cif", []int{40, 40})
	in := &CIFInput{Dir: "/cif", BlockRows: 16, Pred: expr.Ge(expr.Col("id"), expr.ConstInt(10))}
	conf := mr.Conf{MapThreads: 2}
	jctx := &mr.JobContext{FS: e.fs, Cluster: e.cluster, Conf: conf, Counters: mr.NewCounters()}
	splits, err := in.Splits(jctx)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := in.Open(splits[0], taskCtx(e, jctx))
	if err != nil {
		t.Fatal(err)
	}
	children, err := reader.(mr.MultiReader).Readers()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range children {
		for {
			_, ok, err := c.(BlockReader).NextBlock()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		cr := c.(*cifReader)
		if cr.decs != nil || cr.scanScratch != nil {
			t.Errorf("%s: closed reader still holds its decoded partition", cr.split.PartitionDir)
		}
	}
	if err := reader.Close(); err != nil {
		t.Errorf("second Close through the multi-split reader: %v", err)
	}

	// A row-at-a-time reader never takes a block.
	reader, err = in.Open(splits[0], taskCtx(e, jctx))
	if err != nil {
		t.Fatal(err)
	}
	children, err = reader.(mr.MultiReader).Readers()
	if err != nil {
		t.Fatal(err)
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
		}
		if cr := c.(*cifReader); cr.scanScratch != nil {
			t.Errorf("%s: row-at-a-time reader holds a scan block", cr.split.PartitionDir)
		}
		c.Close()
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
	rows := scanAll(t, e, &CIFInput{Dir: "/cif"})
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
	rows := scanAll(t, e, &RowInput{Dir: "/dst"})
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
	jctx := &mr.JobContext{FS: e.fs, Cluster: e.cluster, Counters: mr.NewCounters()}
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
	jctx := &mr.JobContext{FS: e.fs, Cluster: e.cluster, Counters: mr.NewCounters()}
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
	if err := reg.retire("/cif", parts[:2]); err != nil {
		t.Fatal(err)
	}
	rows := scanAll(t, e, &CIFInput{Dir: "/cif"})
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
	// Corrupt one column replica by rewriting the file with a flipped byte,
	// in a copy: ReadAll's bytes are read-only.
	path := "/cif/p-00000/name.col"
	view, err := e.fs.ReadAll(path, "")
	if err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), view...)
	data[len(data)/2] ^= 0xff
	e.fs.Delete(path)
	if err := e.fs.WriteFile(path, "", data); err != nil {
		t.Fatal(err)
	}
	in := &CIFInput{Dir: "/cif"}
	jctx := &mr.JobContext{FS: e.fs, Cluster: e.cluster, Counters: mr.NewCounters()}
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
