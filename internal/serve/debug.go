package serve

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"
)

// DebugServer is the session's live observability surface: an HTTP server
// exposing
//
//	/metrics   the registry in Prometheus text exposition format
//	/profilez  recent query profiles from the flight recorder
//	/slo       per-query-class latency percentiles and shed/error rates
//	/debug/pprof/*  the standard Go profiler endpoints
//
// It serves on its own mux (nothing leaks onto http.DefaultServeMux) and is
// read-only: scraping it never mutates session state, so two scrapes with no
// intervening queries return identical bytes.
type DebugServer struct {
	session *Session
	mux     *http.ServeMux
	srv     *http.Server
	ln      net.Listener
}

// NewDebugServer wires the debug endpoints for a session. Call Start to
// listen.
func NewDebugServer(s *Session) *DebugServer {
	d := &DebugServer{session: s, mux: http.NewServeMux()}
	d.mux.HandleFunc("/metrics", d.handleMetrics)
	d.mux.HandleFunc("/profilez", d.handleProfilez)
	d.mux.HandleFunc("/slo", d.handleSLO)
	d.mux.HandleFunc("/debug/pprof/", pprof.Index)
	d.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	d.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	d.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	d.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return d
}

// Start listens on addr (e.g. "localhost:0") and serves in the background.
func (d *DebugServer) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	d.ln = ln
	d.srv = &http.Server{Handler: d.mux}
	go d.srv.Serve(ln)
	return nil
}

// Addr returns the listening address after Start.
func (d *DebugServer) Addr() string {
	if d.ln == nil {
		return ""
	}
	return d.ln.Addr().String()
}

// Close stops the server, if started.
func (d *DebugServer) Close() error {
	if d.srv == nil {
		return nil
	}
	return d.srv.Close()
}

func (d *DebugServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	d.session.Metrics().WriteProm(w)
}

// handleProfilez renders the flight recorder: text reports by default,
// ?format=json for the machine shape, ?trace=<id> for one profile.
func (d *DebugServer) handleProfilez(w http.ResponseWriter, r *http.Request) {
	rec := d.session.Profiles()
	if rec == nil {
		http.Error(w, "profiling disabled (ProfileDepth < 0)", http.StatusServiceUnavailable)
		return
	}
	if trace := r.URL.Query().Get("trace"); trace != "" {
		p := rec.Get(trace)
		if p == nil {
			http.Error(w, "no such trace in the flight recorder", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		p.WriteJSON(w)
		return
	}
	profiles := rec.Recent()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(profiles)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "flight recorder: %d profiles retained of %d recorded\n\n",
		len(profiles), rec.Total())
	for i, p := range profiles {
		if i > 0 {
			fmt.Fprintln(w, strings.Repeat("-", 72))
		}
		p.WriteText(w)
	}
}

// sloClass is one query class's row in the /slo body. Latency quantiles are
// read straight from the registry histograms ("serve.slo.<class>.latency_ns"),
// so /slo and /metrics can never disagree.
type sloClass struct {
	Class     string `json:"class"`
	Queries   int64  `json:"queries"`
	Completed int64  `json:"completed"`
	Errors    int64  `json:"errors"`
	Shed      int64  `json:"shed"`
	P50Ns     int64  `json:"p50_ns"`
	P90Ns     int64  `json:"p90_ns"`
	P99Ns     int64  `json:"p99_ns"`
	MaxNs     int64  `json:"max_ns"`
}

const sloPrefix = "serve.slo."

func (d *DebugServer) handleSLO(w http.ResponseWriter, _ *http.Request) {
	snap := d.session.Metrics().Snapshot()
	classes := make(map[string]*sloClass)
	get := func(class string) *sloClass {
		c, ok := classes[class]
		if !ok {
			c = &sloClass{Class: class}
			classes[class] = c
		}
		return c
	}
	for name, v := range snap.Counters {
		rest, ok := strings.CutPrefix(name, sloPrefix)
		if !ok {
			continue
		}
		class, kind, ok := strings.Cut(rest, ".")
		if !ok {
			continue
		}
		switch kind {
		case "queries":
			get(class).Queries = v
		case "errors":
			get(class).Errors = v
		case "shed":
			get(class).Shed = v
		}
	}
	for name, h := range snap.Histograms {
		rest, ok := strings.CutPrefix(name, sloPrefix)
		if !ok || !strings.HasSuffix(rest, ".latency_ns") {
			continue
		}
		c := get(strings.TrimSuffix(rest, ".latency_ns"))
		c.Completed = h.Count
		c.P50Ns, c.P90Ns, c.P99Ns = int64(h.P50), int64(h.P90), int64(h.P99)
		c.MaxNs = int64(h.Max)
	}
	out := make([]*sloClass, 0, len(classes))
	for _, c := range classes {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })

	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		GeneratedAt time.Time   `json:"generated_at"`
		Classes     []*sloClass `json:"classes"`
	}{time.Now().UTC(), out})
}
