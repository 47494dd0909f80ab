package main

import (
	"fmt"
	"time"

	"clydesdale/internal/cluster"
	"clydesdale/internal/core"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/ssb"
)

// Cluster shape every workload runs on: the paper's cluster A cut down to
// 4 workers × 2 map slots (about 4 × nproc goroutines on the 2-vCPU host
// the baseline was taken on, not 24 ×), no sleeps (TimeScale 0: wall time is
// host work only, modeled cost is read from Cluster.TotalStats), I/O scaled
// and per-task overheads modeled as the figures harness does.
const (
	benchWorkers = 4
	benchSlots   = 2
	benchIOScale = 2000
	taskLaunch   = time.Second
	jvmStartup   = 3 * time.Second
)

// env is one loaded dataset on one simulated cluster.
type env struct {
	gen *ssb.Generator
	cl  *cluster.Cluster
	fs  *hdfs.FileSystem
	lay *ssb.Layout
	cat *core.Catalog
	mr  *mr.Engine
	reg *obs.Registry

	// tracer is the program's own tracer, created only in a traced run and
	// switched on and off between slices by setTracing. traces collects the
	// engine spans of queries run outside a serve.Session (a session keeps
	// its own collector).
	tracer *obs.Tracer
	traces *obs.TraceCollector
}

func newEnv(cfg runConfig, factRows int64, load ssb.LoadOptions) (*env, error) {
	seed, traced := cfg.seed, cfg.trace
	shape := cluster.ClusterA()
	shape.Workers = benchWorkers
	shape.MapSlots = benchSlots
	shape.TimeScale = 0
	e := &env{
		gen: ssb.NewBenchGenerator(1/float64(cfg.shrink), cfg.rows(factRows), seed),
		cl:  cluster.New(shape),
		reg: obs.NewRegistry(),
	}
	e.fs = hdfs.New(e.cl, hdfs.Options{BlockSize: 256 << 10, Seed: int64(seed)})
	lay, err := ssb.Load(e.fs, e.gen, "/ssb", load)
	if err != nil {
		return nil, fmt.Errorf("loading dataset: %w", err)
	}
	e.lay = lay
	e.cat = lay.Catalog()
	if _, err := core.EnsureCatalogCached(e.fs, e.cat); err != nil {
		return nil, fmt.Errorf("caching dimensions: %w", err)
	}
	// Loading ran at nominal bandwidth; queries run with I/O slowed so that
	// modeled scans weigh against per-task overheads as they do at SF1000.
	e.cl.ScaleIO(benchIOScale)
	e.mr = mr.NewEngine(e.cl, e.fs, mr.Options{
		TaskLaunchOverhead: taskLaunch,
		JVMStartup:         jvmStartup,
		Metrics:            e.reg,
	})
	if traced {
		e.traces = obs.NewTraceCollector(0, 0)
		e.tracer = obs.NewTracer()
	}
	return e, nil
}

// collectTraces makes the environment's own collector a sink of the
// program's tracer: for workloads that run queries without a serve.Session,
// which would otherwise bring its own.
func (e *env) collectTraces() {
	if e.tracer != nil {
		e.tracer.AddSink(e.traces)
	}
}

// setTracing switches the program's tracer on or off. Call it only between
// slices, when no job is in flight.
func (e *env) setTracing(on bool) {
	if e.tracer == nil {
		return
	}
	if on {
		e.mr.SetTracer(e.tracer)
		e.fs.Observe(e.tracer, e.reg)
	} else {
		e.mr.SetTracer(nil)
		e.fs.Observe(nil, e.reg)
	}
}

// memUsedMB is the memory currently reserved on the fullest node.
func (e *env) memUsedMB() float64 {
	var peak int64
	for _, n := range e.cl.Nodes() {
		if m := n.MemoryUsed(); m > peak {
			peak = m
		}
	}
	return float64(peak) / (1 << 20)
}
