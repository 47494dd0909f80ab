package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/expr"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/records"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/serve"
	"clydesdale/internal/ssb"
)

// The ingest smoke run: the CI gate for live ingestion. It drives a serving
// session through the full ingestion lifecycle — batched fact roll-ins
// racing queries, the background compactor, a late-arriving dimension (fact
// rows first, the customers they reference after), a backdated batch and
// date retention — and verifies after every step that a query answers
// exactly like the in-memory reference over the rows rolled in so far. It
// is a correctness smoke, not a performance benchmark: any torn snapshot,
// stale cache, or lost acknowledged row fails the run.

// IngestSmokeConfig sizes the smoke run; zero values take defaults small
// enough for CI.
type IngestSmokeConfig struct {
	FactRows  int64  `json:"fact_rows"`
	Workers   int    `json:"workers"`
	Seed      uint64 `json:"seed"`
	Batches   int    `json:"batches"`
	BatchRows int64  `json:"batch_rows"`
}

func (c IngestSmokeConfig) withDefaults() IngestSmokeConfig {
	if c.FactRows <= 0 {
		c.FactRows = 20_000
	}
	if c.Workers <= 0 {
		c.Workers = 3
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Batches <= 0 {
		c.Batches = 4
	}
	if c.BatchRows <= 0 {
		c.BatchRows = 2_000
	}
	return c
}

// IngestSmokeResult is the JSON artifact the smoke run emits.
type IngestSmokeResult struct {
	Config      IngestSmokeConfig `json:"config"`
	WallNs      int64             `json:"wall_ns"`
	RowsRolled  int64             `json:"rows_rolled_in"`
	Checks      int               `json:"oracle_checks"`
	FinalRows   int64             `json:"final_fact_rows"`
	Stats       serve.Stats       `json:"serve_stats"`
	RetiredByTT int               `json:"partitions_retired_by_retention"`
}

// WriteJSON writes the result as indented JSON.
func (r *IngestSmokeResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
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

// withColumn returns the lineorder row with one integer column replaced.
func withColumn(r records.Record, col string, v int64) records.Record {
	vals := append([]records.Value(nil), r.Values()...)
	vals[ssb.LineorderSchema.MustIndex(col)] = records.Int(v)
	return records.Make(ssb.LineorderSchema, vals...)
}

// RunIngestSmoke runs the live-ingestion smoke: see the package comment
// above. Progress lines go to w.
func RunIngestSmoke(cfg IngestSmokeConfig, w io.Writer) (*IngestSmokeResult, error) {
	cfg = cfg.withDefaults()
	start := time.Now()

	gen := ssb.NewBenchGenerator(1, cfg.FactRows, cfg.Seed)
	c := cluster.New(cluster.Testing(cfg.Workers))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 256 << 10, Seed: int64(cfg.Seed)})
	lay, err := ssb.Load(fs, gen, "/ssb", ssb.LoadOptions{SkipRC: true, PartitionRows: 4096})
	if err != nil {
		return nil, err
	}
	cat := lay.Catalog()
	if _, err := core.EnsureCatalogCached(fs, cat); err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	s := serve.New(mr.NewEngine(c, fs, mr.Options{Metrics: reg}), cat, serve.Options{
		MaxConcurrent:       4,
		IngestPartitionRows: 512,
		ProfileDepth:        -1,
	})
	defer s.Close()

	// The background compactor folds each batch's small partitions into
	// full-size re-clustered ones while the run proceeds.
	stop := s.StartCompactor(5*time.Millisecond, colstore.CompactOptions{
		MinRows:    1024,
		TargetRows: 4096,
		ClusterBy:  "lo_orderdate",
	})
	defer stop()

	queries := ssb.Queries()
	base := gen.LineorderRows()
	// extras are the acknowledged rows beyond the generator's, per table.
	extras := map[string][]records.Record{}

	// reference answers q over the generator's tables + extras-so-far.
	reference := func(q *core.Query) (*results.ResultSet, error) {
		l, err := core.LogicalOf(q, cat)
		if err != nil {
			return nil, err
		}
		return refexec.RunLogical(l, func(table string, fn func(records.Record) error) error {
			if err := gen.Each(table, fn); err != nil {
				return err
			}
			for _, r := range extras[table] {
				if err := fn(r); err != nil {
					return err
				}
			}
			return nil
		})
	}
	// check holds one query to the reference.
	checks := 0
	check := func(q *core.Query) error {
		rs, _, err := s.Query(context.Background(), q)
		if err != nil {
			return fmt.Errorf("bench: ingest smoke %s: %w", q.Name, err)
		}
		want, err := reference(q)
		if err != nil {
			return err
		}
		if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
			return fmt.Errorf("bench: ingest smoke %s diverged from reference: %s", q.Name, why)
		}
		checks++
		return nil
	}
	rollIn := func(table string, rows []records.Record) error {
		n, err := s.RollIn(table, emitAll(rows))
		if err != nil {
			return err
		}
		if n != int64(len(rows)) {
			return fmt.Errorf("bench: %s roll-in acknowledged %d rows, want %d", table, n, len(rows))
		}
		extras[table] = append(extras[table], rows...)
		return nil
	}

	// The last fact batch is the first half of a late-arriving dimension: its
	// rows reference customers the dimension does not hold yet. They must not
	// join before the customer batch is acknowledged and must all join after
	// it — through a result cache, hash tables, prune hints and node-local
	// copies that each hold state of the older customer version. byNation
	// sums revenue per customer nation, so the customers have to move it.
	const lateCustomers = 64
	firstNew := gen.CustomerRows() // customer row i has key i+1
	byNation := &core.Query{
		Name: "late-customers",
		Dims: []core.DimSpec{{
			Table: ssb.TableCustomer, Schema: cat.DimSchemas[ssb.TableCustomer],
			FactFK: "lo_custkey", DimPK: "c_custkey", Aux: []string{"c_nation"},
		}},
		AggExpr: expr.Col("lo_revenue"),
		AggName: "revenue",
		GroupBy: []string{"c_nation"},
	}

	var rolled int64
	for b := 0; b < cfg.Batches; b++ {
		// Queries race the roll-in; the oracle check below runs after the
		// batch is acknowledged, so it must see every batch row.
		var qwg sync.WaitGroup
		var qerr error
		var qmu sync.Mutex
		for i := 0; i < 2; i++ {
			q := queries[(b*2+i)%len(queries)]
			qwg.Add(1)
			go func(q *core.Query) {
				defer qwg.Done()
				if _, _, err := s.Query(context.Background(), q); err != nil {
					qmu.Lock()
					if qerr == nil {
						qerr = fmt.Errorf("bench: ingest smoke racing %s: %w", q.Name, err)
					}
					qmu.Unlock()
				}
			}(q)
		}
		batch := make([]records.Record, cfg.BatchRows)
		for i := range batch {
			batch[i] = gen.Lineorder(base + rolled + int64(i))
			if b == cfg.Batches-1 {
				batch[i] = withColumn(batch[i], "lo_custkey", firstNew+1+int64(i)%lateCustomers)
			}
		}
		err := rollIn(cat.FactName, batch)
		qwg.Wait()
		if err != nil {
			return nil, err
		}
		if qerr != nil {
			return nil, qerr
		}
		rolled += cfg.BatchRows
		if err := check(queries[b%len(queries)]); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "batch %d/%d: %d rows acknowledged, oracle ok\n", b+1, cfg.Batches, cfg.BatchRows)
	}

	// The second half: the customers.
	if err := check(byNation); err != nil {
		return nil, err
	}
	orphaned, err := reference(byNation)
	if err != nil {
		return nil, err
	}
	customers := make([]records.Record, lateCustomers)
	for i := range customers {
		customers[i] = gen.Customer(firstNew + int64(i))
	}
	if err := rollIn(ssb.TableCustomer, customers); err != nil {
		return nil, err
	}
	if err := check(byNation); err != nil {
		return nil, err
	}
	if joined, err := reference(byNation); err != nil {
		return nil, err
	} else if ok, _ := results.Equivalent(orphaned, joined, 1e-9); ok {
		return nil, fmt.Errorf("bench: the late customers changed no answer; the step checked nothing")
	}
	fmt.Fprintf(w, "late dimension: %d customers after the fact rows referencing them, oracle ok\n", lateCustomers)

	// Retention: a backdated batch, then a cutoff that provably expires
	// exactly that batch.
	stop() // quiesce compaction so the backdated partitions stay distinct
	const oldDate, cutoff = 19920101, 19920102
	back := make([]records.Record, cfg.BatchRows/2)
	for i := range back {
		back[i] = withColumn(gen.Lineorder(base+rolled+int64(i)), "lo_orderdate", oldDate)
	}
	if _, err := s.RollIn(cat.FactName, emitAll(back)); err != nil {
		return nil, err
	}
	retired, err := s.RetainFact("lo_orderdate", cutoff)
	if err != nil {
		return nil, err
	}
	if len(retired) == 0 {
		return nil, fmt.Errorf("bench: retention expired nothing; backdated batch not found")
	}
	if err := check(queries[1%len(queries)]); err != nil {
		return nil, err
	}

	var finalRows int64
	if err := colstore.ScanCIFTable(fs, cat.FactDir, "", func(records.Record) error {
		finalRows++
		return nil
	}); err != nil {
		return nil, err
	}
	if want := base + rolled; finalRows != want {
		return nil, fmt.Errorf("bench: final fact table has %d rows, want %d (acknowledged rows lost or retention overreached)", finalRows, want)
	}

	st := s.Stats()
	if st.RollInFailures != 0 {
		return nil, fmt.Errorf("bench: %d roll-in failures on a healthy cluster", st.RollInFailures)
	}
	res := &IngestSmokeResult{
		Config:      cfg,
		WallNs:      time.Since(start).Nanoseconds(),
		RowsRolled:  rolled,
		Checks:      checks,
		FinalRows:   finalRows,
		Stats:       st,
		RetiredByTT: len(retired),
	}
	fmt.Fprintf(w, "ingest smoke: %d rows in %d batches, %d oracle checks, %d compactions, %d partitions retired\n",
		rolled, cfg.Batches, checks, st.Compactions, st.PartitionsRetired)
	return res, nil
}
