package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/records"
)

// closeCounting is a multi-split child that counts its Close calls.
type closeCounting struct {
	mr.RecordReader
	colstore.BlockReader
	closes atomic.Int32
}

func (r *closeCounting) Close() error {
	r.closes.Add(1)
	return r.RecordReader.Close()
}

// countingMulti hands the runner counting wrappers of a real multi-split
// reader's children.
type countingMulti struct {
	mr.RecordReader
	children []*closeCounting
}

func (m *countingMulti) Readers() ([]mr.RecordReader, error) {
	rs, err := m.RecordReader.(mr.MultiReader).Readers()
	if err != nil {
		return nil, err
	}
	out := make([]mr.RecordReader, len(rs))
	for i, rd := range rs {
		c := &closeCounting{RecordReader: rd, BlockReader: rd.(colstore.BlockReader)}
		m.children = append(m.children, c)
		out[i] = c
	}
	return out, nil
}

type countingCollector struct {
	mu sync.Mutex
	n  int
}

func (c *countingCollector) Collect(_, _ records.Record) error {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	return nil
}

// TestRunClosesEachDrainedReader: the multi-threaded runner closes every
// child of its multi-split before Run returns, so a pack holds no drained
// partition until the task ends, and the task's own Close afterwards (the
// second for each child) is harmless.
func TestRunClosesEachDrainedReader(t *testing.T) {
	schema := records.NewSchema(records.F("v", records.KindInt64))
	c := cluster.New(cluster.Testing(1))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 1})
	const parts, rows = 5, 20
	if _, err := colstore.WriteCIFTable(fs, "/t/fact", schema, rows, func(emit func(records.Record) error) error {
		for i := int64(0); i < parts*rows; i++ {
			if err := emit(records.Make(schema, records.Int(i))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	in := &colstore.CIFInput{Dir: "/t/fact"}
	jctx := &mr.JobContext{FS: fs, Cluster: c, Conf: mr.Conf{MapThreads: 2}, Counters: mr.NewCounters()}
	splits, err := in.Splits(jctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 1 {
		t.Fatalf("%d splits, want the one node's five partitions in one pack", len(splits))
	}
	ctx := mr.NewTestTaskContext(jctx, c.Nodes()[0])
	reader, err := in.Open(splits[0], ctx)
	if err != nil {
		t.Fatal(err)
	}
	multi := &countingMulti{RecordReader: reader}
	r := &starJoinRunner{eng: &Engine{}, out: schema}
	out := &countingCollector{}
	if err := r.Run(ctx, multi, out); err != nil {
		t.Fatal(err)
	}
	if len(multi.children) != parts || out.n != parts*rows {
		t.Fatalf("%d children, %d rows; want %d and %d", len(multi.children), out.n, parts, parts*rows)
	}
	for i, ch := range multi.children {
		if n := ch.closes.Load(); n != 1 {
			t.Errorf("child %d closed %d times before Run returned, want 1", i, n)
		}
	}
	if err := multi.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}
