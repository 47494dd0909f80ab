package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"clydesdale/internal/mr"
	"clydesdale/internal/records"
)

// Table 1 (§6.6): the TestDFSIO benchmark — each map task of the write job
// writes a file to HDFS, each map task of the read job reads one back, with
// locality respected — demonstrating that HDFS delivers only a fraction of
// the raw disk bandwidth.

// DFSIOResult is one cluster's Table 1 row set.
type DFSIOResult struct {
	Cluster      string
	FileMB       int64
	Files        int
	WriteMBps    float64 // mean per-task throughput (modeled time)
	ReadMBps     float64
	RawDiskMBps  float64 // configured per-disk device bandwidth
	AggRawMBps   float64 // per-node aggregate raw bandwidth (all spindles)
	HDFSFraction float64 // read throughput / raw disk bandwidth
}

var dfsioValueSchema = records.NewSchema(records.F("nanos", records.KindInt64))

// RunTable1 runs TestDFSIO on the given cluster profile.
func (h *Harness) RunTable1(profile string, fileMB int64, w io.Writer) (*DFSIOResult, error) {
	env, err := h.SetupCluster(profile)
	if err != nil {
		return nil, err
	}
	if fileMB <= 0 {
		fileMB = 8
	}
	// Table 1 reports absolute MB/s; run at nominal bandwidth.
	env.Cluster.ScaleIO(1)
	cfg := env.Cluster.Config()
	files := cfg.Workers
	size := fileMB << 20

	// One split pinned per node; whole-node memory so one task per node and
	// a clean modeled-time delta.
	var splits []*mr.MemorySplit
	for i, n := range env.Cluster.Nodes() {
		splits = append(splits, &mr.MemorySplit{
			Pairs: []mr.KV{{Value: records.Make(dfsioIdxSchema, records.Int(int64(i)))}},
			Hosts: []string{n.ID()},
		})
	}
	conf := mr.Conf{TaskMemory: cfg.MemoryPerNode}

	// Files are written one at a time, a job each: a write charges the
	// nodes that take its replicas too, so its cost is the cluster's modeled
	// time over it, which a second writer running meanwhile would add to.
	writeOut := &mr.MemoryOutput{}
	for _, sp := range splits {
		writeJob := &mr.Job{
			Name:   "dfsio-write",
			Conf:   conf,
			Input:  &mr.MemoryInput{SplitsList: []*mr.MemorySplit{sp}},
			Output: writeOut,
			NewMapper: func() mr.Mapper {
				return &dfsioWriteMapper{size: size}
			},
		}
		if _, err := env.MR.Submit(context.Background(), writeJob); err != nil {
			return nil, fmt.Errorf("bench: dfsio write: %w", err)
		}
	}

	readOut := &mr.MemoryOutput{}
	readJob := &mr.Job{
		Name:   "dfsio-read",
		Conf:   conf,
		Input:  &mr.MemoryInput{SplitsList: splits},
		Output: readOut,
		NewMapper: func() mr.Mapper {
			return &dfsioReadMapper{size: size}
		},
	}
	if _, err := env.MR.Submit(context.Background(), readJob); err != nil {
		return nil, fmt.Errorf("bench: dfsio read: %w", err)
	}

	res := &DFSIOResult{
		Cluster:     profile,
		FileMB:      fileMB,
		Files:       files,
		RawDiskMBps: cfg.DiskBandwidth / (1 << 20),
		AggRawMBps:  cfg.DiskBandwidth * float64(cfg.DisksPerNode) / (1 << 20),
	}
	res.WriteMBps = meanThroughput(writeOut, fileMB)
	res.ReadMBps = meanThroughput(readOut, fileMB)
	if res.RawDiskMBps > 0 {
		res.HDFSFraction = res.ReadMBps / res.RawDiskMBps
	}
	if w != nil {
		printTable1(w, res)
	}
	return res, nil
}

var dfsioIdxSchema = records.NewSchema(records.F("i", records.KindInt64))

// meanThroughput averages per-task MB/s from emitted modeled durations.
func meanThroughput(out *mr.MemoryOutput, fileMB int64) float64 {
	pairs := out.Pairs()
	if len(pairs) == 0 {
		return 0
	}
	var sum float64
	for _, kv := range pairs {
		nanos := kv.Value.Get("nanos").Int64()
		if nanos <= 0 {
			continue
		}
		sum += float64(fileMB) / (float64(nanos) / float64(time.Second))
	}
	return sum / float64(len(pairs))
}

// dfsioWriteMapper writes one file to HDFS and reports the modeled time
// the cluster spent doing it: the writer's disk and network and the
// replicas' (the difference of the cluster's modeled-time counter, clean
// because no other task runs meanwhile).
type dfsioWriteMapper struct {
	size int64
	ctx  *mr.TaskContext
}

// Setup implements mr.Mapper.
func (m *dfsioWriteMapper) Setup(ctx *mr.TaskContext) error { m.ctx = ctx; return nil }

// Cleanup implements mr.Mapper.
func (m *dfsioWriteMapper) Cleanup(mr.Collector) error { return nil }

// Map implements mr.Mapper.
func (m *dfsioWriteMapper) Map(_, v records.Record, out mr.Collector) error {
	idx := v.Get("i").Int64()
	path := fmt.Sprintf("/dfsio/file-%05d", idx)
	m.ctx.FS.Delete(path)
	before := m.ctx.Cluster.TotalStats().ModelTime
	wtr, err := m.ctx.FS.Create(path, m.ctx.Node().ID())
	if err != nil {
		return err
	}
	buf := make([]byte, 64<<10)
	for written := int64(0); written < m.size; written += int64(len(buf)) {
		if _, err := wtr.Write(buf); err != nil {
			return err
		}
	}
	if err := wtr.Close(); err != nil {
		return err
	}
	elapsed := m.ctx.Cluster.TotalStats().ModelTime - before
	return out.Collect(records.Record{}, records.Make(dfsioValueSchema, records.Int(int64(elapsed))))
}

// dfsioReadMapper reads one file back, data-locally.
type dfsioReadMapper struct {
	size int64
	ctx  *mr.TaskContext
}

// Setup implements mr.Mapper.
func (m *dfsioReadMapper) Setup(ctx *mr.TaskContext) error { m.ctx = ctx; return nil }

// Cleanup implements mr.Mapper.
func (m *dfsioReadMapper) Cleanup(mr.Collector) error { return nil }

// Map implements mr.Mapper.
func (m *dfsioReadMapper) Map(_, v records.Record, out mr.Collector) error {
	idx := v.Get("i").Int64()
	path := fmt.Sprintf("/dfsio/file-%05d", idx)
	before := m.ctx.Node().Stats().ModelTime
	r, err := m.ctx.FS.Open(path, m.ctx.Node().ID())
	if err != nil {
		return err
	}
	defer r.Close()
	buf := make([]byte, 64<<10)
	var off int64
	for off < m.size {
		n, err := r.ReadAt(buf, off)
		off += int64(n)
		if err == io.EOF || n == 0 {
			break
		}
		if err != nil {
			return err
		}
	}
	elapsed := m.ctx.Node().Stats().ModelTime - before
	return out.Collect(records.Record{}, records.Make(dfsioValueSchema, records.Int(int64(elapsed))))
}

func printTable1(w io.Writer, r *DFSIOResult) {
	fmt.Fprintf(w, "\nTable 1: TestDFSIO on cluster %s (%d files × %d MB)\n", r.Cluster, r.Files, r.FileMB)
	fmt.Fprintf(w, "%-28s %10.1f MB/s\n", "HDFS write (per task)", r.WriteMBps)
	fmt.Fprintf(w, "%-28s %10.1f MB/s\n", "HDFS read (per task)", r.ReadMBps)
	fmt.Fprintf(w, "%-28s %10.1f MB/s\n", "raw disk (dd, per spindle)", r.RawDiskMBps)
	fmt.Fprintf(w, "%-28s %10.1f MB/s\n", "raw disk (node aggregate)", r.AggRawMBps)
	fmt.Fprintf(w, "HDFS read delivers %.0f%% of one spindle's raw bandwidth\n", 100*r.HDFSFraction)
}
