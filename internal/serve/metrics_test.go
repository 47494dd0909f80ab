package serve_test

import (
	"context"
	"errors"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/records"
	"clydesdale/internal/serve"
	"clydesdale/internal/ssb"
)

// holdOnSpan, once armed, holds the first attempt that ends a span named
// name until release closes: a query provably running, and so holding its
// admission, for as long as a test needs.
type holdOnSpan struct {
	name    string
	armed   atomic.Bool
	held    chan struct{}
	release chan struct{}
}

func (h *holdOnSpan) Emit(sp obs.Span) {
	if sp.Name == h.name && h.armed.CompareAndSwap(true, false) {
		close(h.held)
		<-h.release
	}
}

// scripted is a session taken through every event the registry has a name
// for outside a fault: a result-cache miss, hit and subsumed hit, fact and
// dimension roll-ins, a retention, a compaction and a shed query. The
// filesystem is observed after the load, as a program that loads first does.
type scripted struct {
	*env
	reg *obs.Registry
	s   *serve.Session
}

func newScripted(t *testing.T) *scripted {
	t.Helper()
	reg := obs.NewRegistry()
	hold := &holdOnSpan{name: obs.PhaseMap, held: make(chan struct{}), release: make(chan struct{})}
	e := newEnv(t, 2, 0.001, mr.Options{Metrics: reg, Tracer: obs.NewTracer(hold)})
	e.fs.Observe(nil, reg)
	sc := &scripted{env: e, reg: reg}
	sc.s = e.session(serve.Options{MaxConcurrent: 1, QueueDepth: -1, IngestPartitionRows: 100})
	t.Cleanup(func() { sc.s.Close() })
	ctx := context.Background()

	broad := sc.query(t, "Q4.1")
	for _, q := range []*core.Query{broad, broad, narrowedQ41(t)} { // miss, hit, subsumed
		if _, _, err := sc.s.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}

	gen, base := e.gen, e.gen.LineorderRows()
	if _, err := sc.s.RollIn(ssb.TableCustomer, emitRows([]records.Record{gen.Customer(gen.CustomerRows())})); err != nil {
		t.Fatal(err)
	}
	const oldDate, cutoff = 19920101, 19920102
	for i, date := range []int64{oldDate, -1, -1} {
		lo := base + int64(i)*50
		if _, err := sc.s.RollIn(ssb.TableLineorder, emitRows(materialize(gen, lo, lo+50, date))); err != nil {
			t.Fatal(err)
		}
	}
	if retired, err := sc.s.RetainFact("lo_orderdate", cutoff); err != nil || len(retired) == 0 {
		t.Fatalf("retention retired %v (%v), want the backdated batch", retired, err)
	}
	if res, err := sc.s.CompactFact(colstore.CompactOptions{MinRows: 100}); err != nil || len(res.Retired) == 0 {
		t.Fatalf("compaction = %+v (%v), want the two small batches rewritten", res, err)
	}

	// A query held mid-job fills the one slot, so the next is shed.
	hold.armed.Store(true)
	done := make(chan error, 1)
	go func() {
		_, _, err := sc.s.Query(ctx, sc.query(t, "Q1.1"))
		done <- err
	}()
	<-hold.held
	_, _, shedErr := sc.s.Query(ctx, sc.query(t, "Q2.1"))
	close(hold.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !errors.Is(shedErr, serve.ErrQueueFull) {
		t.Fatalf("query beside a held one: %v, want ErrQueueFull", shedErr)
	}
	return sc
}

func (sc *scripted) query(t *testing.T, name string) *core.Query {
	t.Helper()
	q, err := ssb.QueryByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestRegistryReadsOwnersState: with no /metrics scrape, the registry shows
// the filesystem's counts from its creation, the session's result-cache and
// ingest counts as Stats reports them, and the table-cache residency and
// table versions as they stand. A second session on the same engine adds its
// counts to the first's and owns the cache levels; the table versions are
// the filesystem's, so its query reads the first session's publishes too.
func TestRegistryReadsOwnersState(t *testing.T) {
	sc := newScripted(t)
	s2 := sc.session(serve.Options{})
	defer s2.Close()
	ctx := context.Background()
	if _, err := s2.RollIn(ssb.TableLineorder, emitRows(materialize(sc.gen, 0, 10, -1))); err != nil {
		t.Fatal(err)
	}
	_, rep, err := s2.Query(ctx, sc.query(t, "Q3.1"))
	if err != nil {
		t.Fatal(err)
	}
	snap := sc.reg.Snapshot()

	fs := sc.fs.Metrics().Snapshot()
	for name, want := range map[string]int64{
		"hdfs.read_bytes_local":     fs.LocalBytesRead,
		"hdfs.read_bytes_remote":    fs.RemoteBytesRead,
		"hdfs.write_bytes":          fs.BytesWritten,
		"hdfs.failovers":            fs.Failovers,
		"hdfs.crc_failures":         fs.CRCFailures,
		"hdfs.rereplication_failed": fs.RereplicationsFailed,
	} {
		if got, ok := snap.Counters[name]; !ok || got != want {
			t.Errorf("%s = %d (present %v), filesystem says %d", name, got, ok, want)
		}
	}

	a, b := sc.s.Stats(), s2.Stats()
	for name, want := range map[string]int64{
		"serve.result_cache.hits":             a.ResultHits + b.ResultHits,
		"serve.result_cache.subsumption_hits": a.ResultSubsumedHits + b.ResultSubsumedHits,
		"serve.result_cache.misses":           a.ResultMisses + b.ResultMisses,
		"serve.result_cache.evictions":        a.ResultEvictions + b.ResultEvictions,
		"serve.result_cache.invalidations":    a.ResultInvalidations + b.ResultInvalidations,
		"serve.ingest.roll_ins":               a.RollIns + b.RollIns,
		"serve.ingest.rows":                   a.RollInRows + b.RollInRows,
		"serve.ingest.roll_in_failures":       a.RollInFailures + b.RollInFailures,
		"serve.ingest.compactions":            a.Compactions + b.Compactions,
		"serve.ingest.retentions":             1,
	} {
		if got, ok := snap.Counters[name]; !ok || got != want {
			t.Errorf("%s = %d (present %v), the sessions' Stats say %d", name, got, ok, want)
		}
	}
	if a.ResultHits == 0 || a.ResultSubsumedHits == 0 || b.RollIns == 0 {
		t.Fatalf("fixture: first session %+v, second %+v", a, b)
	}

	if a.ResultBytes == b.ResultBytes {
		t.Fatalf("fixture: both sessions cache %d result bytes; the owner cannot be told", a.ResultBytes)
	}
	for name, want := range map[string]int64{
		"serve.result_cache.resident_bytes": b.ResultBytes,
		"serve.cache.resident_bytes":        b.ResidentBytes,
	} {
		if got, ok := snap.Gauges[name]; !ok || got != want {
			t.Errorf("%s = %d (present %v), the newer session's Stats say %d", name, got, ok, want)
		}
	}
	for i, table := range rep.Read.Tables {
		name := "serve.table_version." + table
		if got, ok := snap.Gauges[name]; !ok || got != int64(rep.Read.At[i]) {
			t.Errorf("%s = %d (present %v), the newer session's query read %s", name, got, ok, rep.Read)
		}
	}
	// The first session's three fact roll-ins and its retention, then the
	// second's roll-in: five fact versions, one count.
	if got := rep.Read.Of(ssb.TableLineorder); got != 5 {
		t.Errorf("the newer session's query read %s, want lineorder@5: both sessions' publishes", rep.Read)
	}
}

// TestSnapshotGaugesFollowPins: a pin held across a compaction shows as one
// snapshot pin and as the partitions the compaction retired but cannot yet
// delete; releasing it reaps them and both levels fall to zero.
func TestSnapshotGaugesFollowPins(t *testing.T) {
	e := newEnv(t, 2, 0.001, mr.Options{})
	s := e.session(serve.Options{IngestPartitionRows: 100})
	defer s.Close()
	levels := func() (int64, int64) {
		g := s.Metrics().Snapshot().Gauges
		return g["serve.ingest.snapshot_pins"], g["serve.ingest.partitions_unreaped"]
	}
	for i := range int64(2) {
		lo := e.gen.LineorderRows() + i*50
		if _, err := s.RollIn(ssb.TableLineorder, emitRows(materialize(e.gen, lo, lo+50, -1))); err != nil {
			t.Fatal(err)
		}
	}
	if pins, unreaped := levels(); pins != 0 || unreaped != 0 {
		t.Fatalf("idle session: %d pins, %d unreaped partitions", pins, unreaped)
	}
	pin, err := s.PinFact()
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.CompactFact(colstore.CompactOptions{MinRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	if pins, unreaped := levels(); pins != 1 || unreaped != int64(len(res.Retired)) || unreaped < 2 {
		t.Errorf("pinned across a compaction retiring %d partitions: %d pins, %d unreaped", len(res.Retired), pins, unreaped)
	}
	pin.Release()
	if pins, unreaped := levels(); pins != 0 || unreaped != 0 {
		t.Errorf("after Release: %d pins, %d unreaped partitions", pins, unreaped)
	}
}

// catalogRow is one row of DESIGN.md's registry catalog.
type catalogRow struct {
	name  *regexp.Regexp
	kind  string
	fault bool // present only once a fault has happened
}

// registryCatalog parses the table under "Metric catalog: the registry" in
// DESIGN.md. A <placeholder> in a name stands for one dot-free word.
func registryCatalog(t *testing.T) map[string]catalogRow {
	t.Helper()
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "**Metric catalog: the registry.**")
	if !ok {
		t.Fatal("DESIGN.md has no registry catalog")
	}
	row := regexp.MustCompile("^\\| `([^`]+)` \\| (counter|gauge|histogram)( \\(fault\\))? \\|")
	rows := map[string]catalogRow{}
	started := false
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			if started {
				break
			}
			continue
		}
		started = true
		if strings.HasPrefix(line, "| name") || strings.HasPrefix(line, "|---") {
			continue
		}
		m := row.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed catalog row: %s", line)
		}
		pattern := regexp.MustCompile(`<[a-z]+>`).ReplaceAllString(regexp.QuoteMeta(m[1]), `[^.]+`)
		rows[m[1]] = catalogRow{name: regexp.MustCompile("^" + pattern + "$"), kind: m[2], fault: m[3] != ""}
	}
	if len(rows) == 0 {
		t.Fatal("the registry catalog has no rows")
	}
	return rows
}

// TestMetricCatalog holds DESIGN.md's registry catalog to the registry both
// ways: every name a scripted session's registry shows has a row of its
// kind, and every row not marked as a fault's has a name there.
func TestMetricCatalog(t *testing.T) {
	rows := registryCatalog(t)
	snap := newScripted(t).reg.Snapshot()
	shown := map[string]string{}
	for name := range snap.Counters {
		shown[name] = "counter"
	}
	for name := range snap.Gauges {
		shown[name] = "gauge"
	}
	for name := range snap.Histograms {
		shown[name] = "histogram"
	}
	names := make([]string, 0, len(shown))
	for name := range shown {
		names = append(names, name)
	}
	sort.Strings(names)
	matched := map[string]bool{}
	for _, name := range names {
		found := false
		for key, r := range rows {
			if r.kind == shown[name] && r.name.MatchString(name) {
				found, matched[key] = true, true
			}
		}
		if !found {
			t.Errorf("the registry shows %s %s; DESIGN.md's catalog has no row for it", shown[name], name)
		}
	}
	for key, r := range rows {
		if !r.fault && !matched[key] {
			t.Errorf("DESIGN.md catalogs %s %s; a scripted session's registry does not show it", r.kind, key)
		}
	}
}
