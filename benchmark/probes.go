package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/mr"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/serve"
	"clydesdale/internal/sql"
	"clydesdale/internal/ssb"
)

// Probes: direct timed calls into single layers, through their public
// functions, on the workload's own cluster and dataset. They run only in a
// traced run, after the window (some of them drop caches), each under a
// probe.<layer>.<fn> span, and are the same on every workload, which is why
// their metrics can be listed in BENCHMARK.json.

const (
	probeDir       = "/bench/probe"
	probeRows      = 20_000 // fact rows materialised for the write and codec probes
	probeScanRows  = 50_000
	probeReadBytes = 8 << 20
	probeLookups   = 200_000
	shufflePairs   = 200_000
)

type prober struct {
	h *harness
	e *env
	m metricSet
}

// timed runs fn under a probe span and returns its duration.
func (p *prober) timed(name string, fn func() error) (time.Duration, error) {
	sp := p.h.log.begin("probe."+name, 0, 0)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	p.h.log.end(sp)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// medianOf times fn reps times and returns the median duration.
func (p *prober) medianOf(name string, reps int, fn func() error) (time.Duration, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		d, err := p.timed(name, fn)
		if err != nil {
			return 0, err
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

func runProbes(h *harness, e *env, m metricSet) error {
	p := &prober{h: h, e: e, m: m}
	for _, probe := range []func() error{
		p.hdfs, p.colstoreRead, p.colstoreWrite, p.coreTables, p.mrJobs, p.planAndSQL, p.serve,
	} {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

func listFactPartitions(e *env) (int, error) {
	parts, err := colstore.ListPartitions(e.fs, e.cat.FactDir)
	return len(parts), err
}

// dirBytes sums the sizes of the files under an HDFS directory.
func dirBytes(e *env, dir string) int64 {
	var total int64
	for _, path := range e.fs.List(dir + "/") {
		if info, err := e.fs.Stat(path); err == nil {
			total += info.Size
		}
	}
	return total
}

func (p *prober) hdfs() error {
	var paths []string
	var bytes int64
	for _, path := range p.e.fs.List(p.e.cat.FactDir + "/") {
		if !strings.HasSuffix(path, ".col") {
			continue
		}
		info, err := p.e.fs.Stat(path)
		if err != nil {
			return err
		}
		paths = append(paths, path)
		if bytes += info.Size; bytes >= probeReadBytes {
			break
		}
	}
	d, err := p.timed("hdfs.read_all", func() error {
		for _, path := range paths {
			if _, err := p.e.fs.ReadAll(path, ""); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.m.set("hdfs.read_mb_per_s", float64(bytes)/(1<<20)/d.Seconds())

	buf := make([]byte, 4<<20)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	const writes = 3
	d, err = p.timed("hdfs.write_file", func() error {
		for i := 0; i < writes; i++ {
			if err := p.e.fs.WriteFile(fmt.Sprintf("%s/w-%d", probeDir, i), "", buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.e.fs.DeletePrefix(probeDir + "/w-")
	p.m.set("hdfs.write_mb_per_s", float64(writes*len(buf))/(1<<20)/d.Seconds())
	return nil
}

func (p *prober) colstoreRead() error {
	parts, err := colstore.ListPartitions(p.e.fs, p.e.cat.FactDir)
	if err != nil {
		return err
	}
	var rows int64
	d, err := p.timed("colstore.scan_cif_partition", func() error {
		for _, pdir := range parts {
			if rows >= probeScanRows {
				break
			}
			if err := colstore.ScanCIFPartition(p.e.fs, pdir, p.e.cat.FactSchema, "", func(records.Record) error {
				rows++
				return nil
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.m.set("colstore.scan_ns_per_row", float64(d)/float64(rows))

	d, err = p.medianOf("colstore.list_partitions", 20, func() error {
		_, err := colstore.ListPartitions(p.e.fs, p.e.cat.FactDir)
		return err
	})
	if err != nil {
		return err
	}
	p.m.set("colstore.list_partitions_us", float64(d)/1e3)
	snaps := colstore.NewSnapshots(p.e.fs)
	d, err = p.medianOf("colstore.snapshot_acquire", 20, func() error {
		sn, err := snaps.Acquire(p.e.cat.FactDir)
		if err != nil {
			return err
		}
		sn.Release()
		return nil
	})
	if err != nil {
		return err
	}
	p.m.set("colstore.snapshot_acquire_us", float64(d)/1e3)
	return nil
}

// factSample materialises probeRows fact rows, so that the write and codec
// probes time the layer and not the generator.
func (p *prober) factSample() []records.Record {
	n := int64(probeRows)
	if max := p.e.gen.LineorderRows(); n > max {
		n = max
	}
	rows := make([]records.Record, n)
	for i := range rows {
		rows[i] = p.e.gen.Lineorder(int64(i))
	}
	return rows
}

func emitAll(rows []records.Record) func(emit func(records.Record) error) error {
	return func(emit func(records.Record) error) error {
		for _, r := range rows {
			if err := emit(r); err != nil {
				return err
			}
		}
		return nil
	}
}

func (p *prober) colstoreWrite() error {
	rows := p.factSample()
	d, err := p.timed("colstore.write_cif_table", func() error {
		_, err := colstore.WriteCIFTable(p.e.fs, probeDir+"/load.cif", ssb.LineorderSchema, ingestBasePart, emitAll(rows))
		return err
	})
	if err != nil {
		return err
	}
	p.e.fs.DeletePrefix(probeDir + "/load.cif/")
	p.m.set("colstore.load_rows_per_s", float64(len(rows))/d.Seconds())

	// Compaction, without a session: one pass over the small partitions
	// five batches leave in an empty table. The roll-in itself is timed in
	// the window (colstore.rollin_rows_per_s), not here.
	dir := probeDir + "/rollin.cif"
	if _, err := colstore.WriteCIFTable(p.e.fs, dir, ssb.LineorderSchema, ingestPartRows, emitAll(nil)); err != nil {
		return err
	}
	snaps := colstore.NewSnapshots(p.e.fs)
	const batches = 5
	var rolled int64
	for b := 0; b < batches; b++ {
		lo := b * batchRows % len(rows)
		hi := min(lo+batchRows, len(rows))
		n, _, err := snaps.RollIn(dir, ingestPartRows, emitAll(rows[lo:hi]))
		if err != nil {
			return fmt.Errorf("colstore.compact: filling the table: %w", err)
		}
		rolled += n
	}
	var compacted int64
	d, err = p.timed("colstore.compact", func() error {
		res, err := colstore.Compact(snaps, dir, compactOpts)
		if err == nil {
			compacted = res.Rows
		}
		return err
	})
	if err != nil {
		return err
	}
	p.e.fs.DeletePrefix(dir + "/")
	p.m.set("colstore.compact_rows_per_s", float64(compacted)/d.Seconds())
	if _, ok := p.m["colstore.write_amp"]; !ok { // ingest_live measured its own
		p.m.set("colstore.write_amp", ratio(float64(rolled+compacted), float64(rolled)))
	}

	var buf []byte
	d, err = p.timed("records.codec", func() error {
		for _, r := range rows {
			buf = records.AppendRecord(buf[:0], r)
			if _, _, err := records.DecodeRecord(buf, ssb.LineorderSchema); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.m.set("records.codec_ns_per_record", float64(d)/float64(len(rows)))
	return nil
}

func (p *prober) coreTables() error {
	cat := p.e.cat
	var dirs []string
	for _, dir := range cat.DimDirs {
		dirs = append(dirs, dir)
	}
	d, err := p.timed("core.ensure_catalog_cached", func() error {
		for _, dir := range dirs {
			core.DropDimCached(p.e.cl, dir)
		}
		_, err := core.EnsureCatalogCached(p.e.fs, cat)
		return err
	})
	if err != nil {
		return err
	}
	p.m.set("core.dim_cache_ms", ms(d))

	q31, err := ssb.QueryByName("Q3.1")
	if err != nil {
		return err
	}
	q21, err := ssb.QueryByName("Q2.1")
	if err != nil {
		return err
	}
	node := p.e.cl.Nodes()[0]
	var customer *core.DimHashTable
	for _, b := range []struct {
		metric string
		spec   *core.DimSpec
	}{
		{"core.build_customer_ms", q31.Dim(ssb.TableCustomer)},
		{"core.build_supplier_ms", q31.Dim(ssb.TableSupplier)},
		{"core.build_date_ms", q31.Dim(ssb.TableDate)},
		{"core.build_part_ms", q21.Dim(ssb.TablePart)},
	} {
		dir, err := cat.DimDir(b.spec.Table)
		if err != nil {
			return err
		}
		d, err := p.medianOf("core.build_dim_hash_table", 3, func() error {
			ht, err := core.BuildDimHashTable(p.e.fs, node, dir, b.spec)
			if b.spec.Table == ssb.TableCustomer {
				customer = ht
			}
			return err
		})
		if err != nil {
			return err
		}
		p.m.set(b.metric, ms(d))
	}

	keys := p.e.gen.CustomerRows()
	found := 0
	d, err = p.timed("core.dim_hash_table_probe", func() error {
		k := int64(1)
		for i := 0; i < probeLookups; i++ {
			if _, ok := customer.Probe(k); ok {
				found++
			}
			k = (k*7919+13)%keys + 1
		}
		return nil
	})
	if err != nil {
		return err
	}
	if found == 0 {
		return fmt.Errorf("core.dim_hash_table_probe: no key found in %d lookups", probeLookups)
	}
	p.m.set("core.probe_lookup_ns", float64(d)/probeLookups)
	return nil
}

var (
	pairKey   = records.NewSchema(records.F("k", records.KindInt64))
	pairValue = records.NewSchema(records.F("v", records.KindInt64))
)

func identityJob(in *mr.MemoryInput, reducers int) *mr.Job {
	job := &mr.Job{
		Name:   "bench-identity",
		Input:  in,
		Output: mr.DiscardOutput{},
		NewMapper: func() mr.Mapper {
			return mr.MapperFunc(func(k, v records.Record, out mr.Collector) error { return out.Collect(k, v) })
		},
		NumReduceTasks: reducers,
		KeySchema:      pairKey,
		ValueSchema:    pairValue,
	}
	if reducers > 0 {
		job.NewReducer = func() mr.Reducer {
			return mr.ReducerFunc(func(k records.Record, vs mr.Values, out mr.Collector) error {
				for v, ok := vs.Next(); ok; v, ok = vs.Next() {
					if err := out.Collect(k, v); err != nil {
						return err
					}
				}
				return nil
			})
		}
	}
	return job
}

func (p *prober) mrJobs() error {
	ctx := context.Background()
	empty := &mr.MemoryInput{SplitsList: []*mr.MemorySplit{{}}}
	d, err := p.medianOf("mr.submit_empty", 5, func() error {
		_, err := p.e.mr.Submit(ctx, identityJob(empty, 0))
		return err
	})
	if err != nil {
		return err
	}
	p.m.set("mr.empty_job_ms", ms(d))

	in := &mr.MemoryInput{}
	const splits = benchWorkers
	for s := 0; s < splits; s++ {
		sp := &mr.MemorySplit{}
		for i := 0; i < shufflePairs/splits; i++ {
			n := int64(s*shufflePairs/splits + i)
			sp.Pairs = append(sp.Pairs, mr.KV{
				Key:   records.Make(pairKey, records.Int(n*2654435761%shufflePairs)),
				Value: records.Make(pairValue, records.Int(n)),
			})
		}
		in.SplitsList = append(in.SplitsList, sp)
	}
	d, err = p.timed("mr.submit_shuffle", func() error {
		_, err := p.e.mr.Submit(ctx, identityJob(in, benchWorkers))
		return err
	})
	if err != nil {
		return err
	}
	p.m.set("mr.shuffle_ns_per_record", float64(d)/shufflePairs)
	return nil
}

func (p *prober) planAndSQL() error {
	queries := ssb.Queries()
	cat := p.e.cat
	const reps = 20
	per := func(d time.Duration) float64 { return float64(d) / 1e3 / float64(reps*len(queries)) }

	d, err := p.timed("plan.fingerprint", func() error {
		for r := 0; r < reps; r++ {
			for _, q := range queries {
				l, err := core.LogicalOf(q, cat)
				if err != nil {
					return err
				}
				sh, err := plan.Decompose(l)
				if err != nil {
					return err
				}
				k := plan.KeyOf(sh)
				if k.Fingerprint() == "" {
					return fmt.Errorf("%s: empty fingerprint", q.Name)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.m.set("plan.fingerprint_us", per(d))

	d, err = p.timed("plan.lower", func() error {
		for r := 0; r < reps; r++ {
			for _, q := range queries {
				l, err := core.LogicalOf(q, cat)
				if err != nil {
					return err
				}
				sh, err := plan.Decompose(l)
				if err != nil {
					return err
				}
				if _, err := sh.Linearize(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.m.set("plan.lower_us", per(d))

	eng := core.New(p.e.mr, cat, core.Options{})
	d, err = p.timed("plan.choose", func() error {
		for _, name := range hiveQueries { // one query per flight
			q, err := ssb.QueryByName(name)
			if err != nil {
				return err
			}
			l, err := core.LogicalOf(q, cat)
			if err != nil {
				return err
			}
			st, err := eng.PlanStats(l)
			if err != nil {
				return err
			}
			if _, err := plan.Choose(l, st); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.m.set("plan.choose_ms", ms(d)/float64(len(hiveQueries)))

	star := sql.StarFromCatalog(cat, cat.FactName)
	d, err = p.timed("sql.parse_star", func() error {
		for r := 0; r < reps; r++ {
			for _, q := range queries {
				if _, err := sql.ParseStar(ssbSQL[q.Name], star); err != nil {
					return fmt.Errorf("%s: %w", q.Name, err)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.m.set("sql.parse_us", per(d))
	return nil
}

func (p *prober) serve() error {
	s := serve.New(p.e.mr, p.e.cat, serve.Options{MaxConcurrent: 1, ProfileDepth: -1})
	defer s.Close()
	ctx := context.Background()
	q, err := ssb.QueryByName("Q2.1")
	if err != nil {
		return err
	}
	if _, _, err := s.Query(ctx, q); err != nil { // computes and caches the answer
		return err
	}
	d, err := p.medianOf("serve.query_hit", 50, func() error {
		_, rep, err := s.Query(ctx, q)
		if err == nil && rep.Job.JobID != "" {
			return fmt.Errorf("repeat of %s ran a job", q.Name)
		}
		return err
	})
	if err != nil {
		return err
	}
	p.m.set("serve.hit_us", float64(d)/1e3)

	// Customers with keys no fact row references: every store a dimension
	// roll-in invalidates is invalidated, no answer changes.
	next := p.e.gen.CustomerRows() + 1_000_000
	d, err = p.medianOf("serve.rollin_dim", 3, func() error {
		lo := next
		next += dimBatchRows
		_, err := s.RollIn(ssb.TableCustomer, func(emit func(records.Record) error) error {
			for i := lo; i < lo+dimBatchRows; i++ {
				if err := emit(p.e.gen.Customer(i)); err != nil {
					return err
				}
			}
			return nil
		})
		return err
	})
	if err != nil {
		return err
	}
	p.m.set("serve.dim_rollin_ms", ms(d))
	return nil
}
