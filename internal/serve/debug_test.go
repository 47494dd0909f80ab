package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"clydesdale/internal/mr"
	"clydesdale/internal/records"
	"clydesdale/internal/serve"
	"clydesdale/internal/ssb"
)

// debugEnv runs a few queries through a session and returns it with its
// debug handler mounted on an httptest server.
func debugEnv(t *testing.T, names ...string) (*serve.Session, *httptest.Server) {
	t.Helper()
	e := newEnv(t, 3, 0.002, mr.Options{})
	sess := e.session(serve.Options{MaxConcurrent: 4})
	t.Cleanup(func() { sess.Close() })
	for _, name := range names {
		q, err := ssb.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := sess.Query(context.Background(), q); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	srv := httptest.NewServer(serve.NewDebugServer(sess).Handler())
	t.Cleanup(srv.Close)
	return sess, srv
}

func get(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	return string(body), resp.Header.Get("Content-Type")
}

var (
	promTypeRe   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|summary)$`)
	promSampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9]`)
)

// TestDebugMetricsEndpoint checks /metrics speaks the Prometheus text
// exposition format — every line is a TYPE comment or a well-formed sample
// — and that an idle server is deterministic: two scrapes with no queries
// in between return identical bytes.
func TestDebugMetricsEndpoint(t *testing.T) {
	_, srv := debugEnv(t, "Q1.1", "Q2.1")

	body, ctype := get(t, srv.URL+"/metrics")
	if !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text exposition", ctype)
	}
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("suspiciously short exposition:\n%s", body)
	}
	for _, line := range lines {
		if strings.HasPrefix(line, "#") {
			if !promTypeRe.MatchString(line) {
				t.Errorf("bad comment line: %q", line)
			}
			continue
		}
		if !promSampleRe.MatchString(line) {
			t.Errorf("bad sample line: %q", line)
		}
	}
	for _, want := range []string{
		"serve_slo_flight_1_queries_total",
		"serve_slo_flight_2_queries_total",
		"mr_map_duration_ns{quantile=\"0.99\"}",
		"mr_map_duration_ns_count",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	again, _ := get(t, srv.URL+"/metrics")
	if !bytes.Equal([]byte(body), []byte(again)) {
		t.Error("two idle scrapes differ byte-for-byte")
	}
}

// TestDebugMetricsLiveGauges checks the serving layer's live state reaches
// /metrics: admission levels (idle at scrape time), table-cache residency,
// and the result cache's entry count and bytes for the two cached queries.
func TestDebugMetricsLiveGauges(t *testing.T) {
	_, srv := debugEnv(t, "Q1.1", "Q2.1")
	body, _ := get(t, srv.URL+"/metrics")

	gauge := func(name string) int64 {
		t.Helper()
		re := regexp.MustCompile(`(?m)^` + name + ` (-?\d+)$`)
		m := re.FindStringSubmatch(body)
		if m == nil {
			t.Fatalf("exposition missing gauge %s:\n%s", name, body)
		}
		v, err := strconv.ParseInt(m[1], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	// Nothing is queued or running at scrape time.
	for _, name := range []string{
		"serve_admission_queue_depth",
		"serve_admission_in_flight",
		"serve_admission_reserved_bytes",
	} {
		if v := gauge(name); v != 0 {
			t.Errorf("%s = %d on an idle session, want 0", name, v)
		}
	}
	if v := gauge("serve_cache_resident_bytes"); v <= 0 {
		t.Errorf("serve_cache_resident_bytes = %d with warm dimension tables", v)
	}
	if v := gauge("serve_result_cache_entries"); v != 2 {
		t.Errorf("serve_result_cache_entries = %d after 2 distinct queries, want 2", v)
	}
	if v := gauge("serve_result_cache_resident_bytes"); v <= 0 {
		t.Errorf("serve_result_cache_resident_bytes = %d with 2 cached results", v)
	}
	if v := gauge("serve_result_cache_hits_total"); v != 0 {
		t.Errorf("serve_result_cache_hits_total = %d with no repeated query, want 0", v)
	}
	// One version gauge per catalog table: the fact table's content version
	// (nothing rolled in yet), each dimension's count of published files.
	if v := gauge("serve_table_version_lineorder"); v != 0 {
		t.Errorf("serve_table_version_lineorder = %d before any roll-in, want 0", v)
	}
	for _, dim := range []string{"customer", "supplier", "part", "date"} {
		if v := gauge("serve_table_version_" + dim); v != 1 {
			t.Errorf("serve_table_version_%s = %d for a freshly loaded dimension, want 1", dim, v)
		}
	}
}

// TestDebugTableVersions checks that a roll-in shows where the issue says it
// must: the table's /metrics gauge moves, and the next query's profile —
// root span, /profilez text and JSON — names the versions it read.
func TestDebugTableVersions(t *testing.T) {
	sess, srv := debugEnv(t, "Q3.1")
	if _, err := sess.RollIn("customer", func(emit func(records.Record) error) error {
		return emit(ssb.NewGenerator(0.002, 42).Customer(0))
	}); err != nil {
		t.Fatal(err)
	}
	q, err := ssb.QueryByName("Q3.1")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}

	body, _ := get(t, srv.URL+"/metrics")
	if !regexp.MustCompile(`(?m)^serve_table_version_customer 2$`).MatchString(body) {
		t.Errorf("no serve_table_version_customer 2 after a customer roll-in:\n%s", body)
	}
	const before, after = "read: lineorder@0 customer@1 date@1 supplier@1\n", "read: lineorder@0 customer@2 date@1 supplier@1\n"
	text, _ := get(t, srv.URL+"/profilez")
	if !strings.Contains(text, before) || !strings.Contains(text, after) {
		t.Errorf("/profilez lacks the read lines %q and %q:\n%s", before, after, text)
	}
	jsonBody, _ := get(t, srv.URL+"/profilez?format=json")
	var profiles []struct {
		Read string `json:"read"`
		Root struct {
			Attrs map[string]string `json:"attrs"`
		} `json:"root"`
	}
	if err := json.Unmarshal([]byte(jsonBody), &profiles); err != nil {
		t.Fatalf("bad /profilez JSON: %v", err)
	}
	for _, p := range profiles {
		if p.Read == "" || p.Root.Attrs["read"] != p.Read {
			t.Errorf("profile read %q, root query span read %q", p.Read, p.Root.Attrs["read"])
		}
	}
}

// TestDebugSLOEndpoint checks /slo reports per-class percentiles that match
// the registry's histograms exactly (the endpoint reads them from the same
// snapshot the /metrics exposition uses).
func TestDebugSLOEndpoint(t *testing.T) {
	sess, srv := debugEnv(t, "Q1.1", "Q1.2", "Q2.1")
	// A query refused at validation is an error of its class like any other.
	bad, err := ssb.QueryByName("Q2.2")
	if err != nil {
		t.Fatal(err)
	}
	bad.GroupBy = append(bad.GroupBy, "no_such_column")
	if _, _, err := sess.Query(context.Background(), bad); err == nil {
		t.Fatal("a query grouping by an unknown column ran")
	}

	body, ctype := get(t, srv.URL+"/slo")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("Content-Type = %q, want application/json", ctype)
	}
	var out struct {
		Classes []struct {
			Class     string `json:"class"`
			Queries   int64  `json:"queries"`
			Completed int64  `json:"completed"`
			Errors    int64  `json:"errors"`
			Shed      int64  `json:"shed"`
			P50Ns     int64  `json:"p50_ns"`
			P99Ns     int64  `json:"p99_ns"`
		} `json:"classes"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad /slo JSON: %v\n%s", err, body)
	}
	byClass := map[string]int{}
	for i, c := range out.Classes {
		byClass[c.Class] = i
	}
	f1, ok := byClass["flight-1"]
	if !ok {
		t.Fatalf("no flight-1 class in /slo: %s", body)
	}
	if got := out.Classes[f1].Queries; got != 2 {
		t.Errorf("flight-1 queries = %d, want 2", got)
	}
	if _, ok := byClass["flight-2"]; !ok {
		t.Errorf("no flight-2 class in /slo: %s", body)
	}

	wantErrors := map[string]int64{"flight-2": 1}
	snap := sess.Metrics().Snapshot()
	for _, c := range out.Classes {
		h, ok := snap.Histograms["serve.slo."+c.Class+".latency_ns"]
		if !ok {
			t.Errorf("class %s has no registry histogram", c.Class)
			continue
		}
		if c.Completed != h.Count || c.P50Ns != int64(h.P50) || c.P99Ns != int64(h.P99) {
			t.Errorf("class %s: /slo (n=%d p50=%d p99=%d) != registry (n=%d p50=%d p99=%d)",
				c.Class, c.Completed, c.P50Ns, c.P99Ns, h.Count, int64(h.P50), int64(h.P99))
		}
		if c.Errors != wantErrors[c.Class] || c.Shed != 0 {
			t.Errorf("class %s: errors=%d shed=%d, want %d and 0", c.Class, c.Errors, c.Shed, wantErrors[c.Class])
		}
	}
}

// TestDebugProfilezEndpoint checks the flight recorder surface: the text
// view lists one EXPLAIN ANALYZE report per query, the JSON view parses,
// and ?trace= fetches a single profile.
func TestDebugProfilezEndpoint(t *testing.T) {
	sess, srv := debugEnv(t, "Q1.1", "Q3.4")

	body, _ := get(t, srv.URL+"/profilez")
	if !strings.Contains(body, "flight recorder: 2 profiles retained of 2 recorded") {
		t.Errorf("text header wrong:\n%.200s", body)
	}
	if !strings.Contains(body, "EXPLAIN ANALYZE Q1.1") || !strings.Contains(body, "EXPLAIN ANALYZE Q3.4") {
		t.Error("text view missing a query report")
	}

	jsonBody, _ := get(t, srv.URL+"/profilez?format=json")
	var profiles []struct {
		Trace  string `json:"trace"`
		Query  string `json:"query"`
		WallNs int64  `json:"wall_ns"`
		Phases []struct {
			Name   string `json:"name"`
			WallNs int64  `json:"wall_ns"`
		} `json:"phases"`
	}
	if err := json.Unmarshal([]byte(jsonBody), &profiles); err != nil {
		t.Fatalf("bad /profilez JSON: %v", err)
	}
	if len(profiles) != 2 {
		t.Fatalf("got %d profiles, want 2", len(profiles))
	}
	for _, p := range profiles {
		var sum int64
		for _, ph := range p.Phases {
			sum += ph.WallNs
		}
		if sum != p.WallNs {
			t.Errorf("%s: phase walls sum to %d, wall is %d", p.Query, sum, p.WallNs)
		}
	}

	one, ctype := get(t, srv.URL+"/profilez?trace="+profiles[0].Trace)
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("single-trace Content-Type = %q", ctype)
	}
	var single struct {
		Trace string `json:"trace"`
	}
	if err := json.Unmarshal([]byte(one), &single); err != nil {
		t.Fatal(err)
	}
	if single.Trace != profiles[0].Trace {
		t.Errorf("?trace=%s returned trace %s", profiles[0].Trace, single.Trace)
	}

	// The recorder the endpoints read is the same one the session fills.
	if got := sess.Profiles().Total(); got != 2 {
		t.Errorf("recorder Total = %d, want 2", got)
	}
}
