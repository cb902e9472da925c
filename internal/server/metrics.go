package server

import (
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/slo"
	"repro/internal/telemetry/trace"
)

// Route labels for metrics and logs. A closed set keeps the label
// cardinality bounded no matter what paths clients probe.
const (
	routeUpload    = "upload"
	routeReadBlock = "read_block"
	routeStat      = "stat"
	routeList      = "list"
	routeDelete    = "delete"
	routeMetrics   = "metrics"
	routeHealthz   = "healthz"
	routeReadyz    = "readyz"
	routeTraces    = "debug_traces"
	routeSLO       = "debug_slo"
	routeHistory   = "debug_history"
)

// quietRoute reports whether a route is a scrape/probe/export surface:
// never traced, never request-logged, and excluded from per-tenant SLO
// accounting — a Prometheus scraper or readiness prober must not
// perturb the signals it reads.
func quietRoute(route string) bool {
	switch route {
	case routeMetrics, routeHealthz, routeReadyz, routeTraces, routeSLO, routeHistory:
		return true
	}
	return false
}

// latencyBuckets are the `le` edges at which /metrics exposes each
// route's latency histogram. A fixed grid keeps the scrape shape stable
// across runs, which is what lets the wire-protocol golden test pin the
// series set.
var latencyBuckets = [...]time.Duration{
	time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	time.Second, 2500 * time.Millisecond,
}

// routeHist is one route's request latency histogram, in nanoseconds,
// plus the most recent retained-trace exemplar per exposed edge (the
// last one is +Inf). The exemplars are guarded by serverMetrics.mu.
type routeHist struct {
	hist      telemetry.Histogram
	exemplars [len(latencyBuckets) + 1]telemetry.Exemplar
}

// tenantCounters are one tenant's SLO event counters and its read and
// upload latency histograms, in nanoseconds, whose counts are the
// tenant's reads and uploads. readSec and uploadSec are the tenant's
// slow-request thresholds in seconds, fixed at construction.
type tenantCounters struct {
	readSec, uploadSec float64

	requests   atomic.Uint64
	errors     atomic.Uint64 // 5xx responses
	readSlow   atomic.Uint64
	uploadSlow atomic.Uint64
	reads      telemetry.Histogram
	uploads    telemetry.Histogram
}

// serverMetrics aggregates pastrid's request-level counters: requests
// by route and status code, latency histograms per route, the
// in-flight gauge, and per-tenant SLO event counters. The route and
// tenant sets are fixed once the server's handlers are wrapped, and the
// histograms and tenant counters are atomic; the mutex guards the
// status-code map and the exemplars, a few updates per request.
type serverMetrics struct {
	inflight atomic.Int64

	tenants map[string]*tenantCounters // fixed at startup; read-only

	mu       sync.Mutex
	requests map[string]map[int]uint64 // route → status → count
	routes   map[string]*routeHist
}

func newServerMetrics(tenants map[string]*tenantCounters) *serverMetrics {
	return &serverMetrics{
		tenants:  tenants,
		requests: make(map[string]map[int]uint64),
		routes:   make(map[string]*routeHist),
	}
}

// route returns route's latency histogram, creating it on first use.
func (m *serverMetrics) route(route string) *routeHist {
	m.mu.Lock()
	defer m.mu.Unlock()
	rh := m.routes[route]
	if rh == nil {
		rh = &routeHist{}
		m.routes[route] = rh
	}
	return rh
}

// observe records one finished request in its route's histogram rh.
// traceID and retained come from the tracer: a request whose trace
// survived tail sampling stamps its trace ID as the exemplar of the
// edge it falls under, so the exemplar always points at a trace that
// is actually in the ring. tenant feeds the SLO event counters and is
// counted only for configured tenants on non-quiet routes.
func (m *serverMetrics) observe(rh *routeHist, route, tenant string, status int, d time.Duration, traceID string, retained bool) {
	d = max(d, 0)
	rh.hist.Observe(uint64(d))
	m.mu.Lock()
	byStatus := m.requests[route]
	if byStatus == nil {
		byStatus = make(map[int]uint64)
		m.requests[route] = byStatus
	}
	byStatus[status]++
	if retained && traceID != "" {
		edge := 0
		for edge < len(latencyBuckets) && d > latencyBuckets[edge] {
			edge++
		}
		rh.exemplars[edge] = telemetry.Exemplar{
			TraceID: traceID,
			Value:   d.Seconds(),
			Unix:    float64(time.Now().UnixNano()) / 1e9,
		}
	}
	m.mu.Unlock()
	tc := m.tenants[tenant]
	if tc == nil || quietRoute(route) {
		return
	}
	tc.requests.Add(1)
	if status >= 500 {
		tc.errors.Add(1)
	}
	switch route {
	case routeReadBlock:
		tc.reads.Observe(uint64(d))
		if d.Seconds() > tc.readSec {
			tc.readSlow.Add(1)
		}
	case routeUpload:
		tc.uploads.Observe(uint64(d))
		if d.Seconds() > tc.uploadSec {
			tc.uploadSlow.Add(1)
		}
	}
}

// tenantQuantiles reads every tenant's read/upload p50/p99 (in
// milliseconds) off its histograms for the SLO report.
func (m *serverMetrics) tenantQuantiles() map[string]slo.Quantiles {
	ms := func(h *telemetry.Histogram, q float64) float64 { return float64(h.Quantile(q)) / 1e6 }
	out := make(map[string]slo.Quantiles, len(m.tenants))
	for t, tc := range m.tenants {
		out[t] = slo.Quantiles{
			ReadP50MS:   ms(&tc.reads, 0.50),
			ReadP99MS:   ms(&tc.reads, 0.99),
			UploadP50MS: ms(&tc.uploads, 0.50),
			UploadP99MS: ms(&tc.uploads, 0.99),
		}
	}
	return out
}

// handleTraces serves the retained-trace ring as Chrome trace-event
// JSON (load the body in Perfetto or chrome://tracing). The ring is
// not drained by reading — repeated GETs see the same traces until
// retention evicts them.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.WriteTraces(w)
}

// handleMetrics renders the full Prometheus scrape: pastrid server
// families, tenant-labeled pipeline families, and Go runtime families.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	m := s.metrics
	m.mu.Lock()
	type reqSample struct {
		route  string
		status int
		n      uint64
	}
	var reqs []reqSample
	for route, byStatus := range m.requests {
		for status, n := range byStatus {
			reqs = append(reqs, reqSample{route, status, n})
		}
	}
	type histSample struct {
		route     string
		hist      *telemetry.Histogram
		exemplars [len(latencyBuckets) + 1]telemetry.Exemplar
	}
	var hists []histSample
	for route, rh := range m.routes {
		hists = append(hists, histSample{route, &rh.hist, rh.exemplars})
	}
	m.mu.Unlock()
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].route != reqs[j].route {
			return reqs[i].route < reqs[j].route
		}
		return reqs[i].status < reqs[j].status
	})
	sort.Slice(hists, func(i, j int) bool { return hists[i].route < hists[j].route })

	p := telemetry.NewPromWriter(w)
	p.Header("pastrid_requests_total", "HTTP requests by route and status.", "counter")
	for _, rs := range reqs {
		p.Sample("pastrid_requests_total", float64(rs.n), "route", rs.route, "code", strconv.Itoa(rs.status))
	}
	const latency = "pastrid_request_latency_seconds"
	p.Header(latency, "Request latency histogram by route; exemplars carry retained trace IDs.", "histogram")
	for _, hs := range hists {
		// Taken after the exemplars were copied, the snapshot holds every
		// request they name. A route appears once it has served one.
		snap := hs.hist.Snapshot()
		if snap.Count == 0 {
			continue
		}
		// Each edge counts the histogram buckets that lie wholly at or
		// below it, so it misses only the observations in the one bucket
		// (at most 6.25% wide) that straddles the edge.
		var cum uint64
		b := snap.Buckets
		for i, edge := range latencyBuckets {
			for len(b) > 0 && b[0].Le <= uint64(edge) {
				cum += b[0].N
				b = b[1:]
			}
			p.SampleExemplar(latency+"_bucket", float64(cum), hs.exemplars[i],
				"route", hs.route, "le", strconv.FormatFloat(edge.Seconds(), 'g', -1, 64))
		}
		for _, bk := range b {
			cum += bk.N
		}
		p.SampleExemplar(latency+"_bucket", float64(cum), hs.exemplars[len(latencyBuckets)],
			"route", hs.route, "le", "+Inf")
		p.Sample(latency+"_sum", float64(snap.Sum)/1e9, "route", hs.route)
		p.Sample(latency+"_count", float64(cum), "route", hs.route)
	}
	p.Header("pastrid_inflight_requests", "Requests currently being served.", "gauge")
	p.Sample("pastrid_inflight_requests", float64(m.inflight.Load()))

	ts := s.tracer.Stats()
	p.Header("pastrid_traces_started_total", "Requests that entered the tracer; each records spans.", "counter")
	p.Sample("pastrid_traces_started_total", float64(ts.TracesStarted))
	p.Header("pastrid_traces_retained_total", "Finished traces kept by tail sampling, by reason.", "counter")
	for _, reason := range trace.KeepReasons {
		p.Sample("pastrid_traces_retained_total", float64(ts.RetainedByReason[reason]), "reason", reason)
	}
	p.Header("pastrid_trace_spans_total", "Spans recorded across all traces.", "counter")
	p.Sample("pastrid_trace_spans_total", float64(ts.SpansStarted))
	p.Header("pastrid_trace_spans_dropped_total", "Spans dropped by the per-trace span cap.", "counter")
	p.Sample("pastrid_trace_spans_dropped_total", float64(ts.SpansDropped))
	p.Header("pastrid_trace_ring_traces", "Retained traces resident in the export ring.", "gauge")
	p.Sample("pastrid_trace_ring_traces", float64(ts.RingTraces))

	cs := s.cache.Stats()
	p.Header("pastrid_cache_hits_total", "Block cache hits.", "counter")
	p.Sample("pastrid_cache_hits_total", float64(cs.Hits))
	p.Header("pastrid_cache_misses_total", "Block cache misses.", "counter")
	p.Sample("pastrid_cache_misses_total", float64(cs.Misses))
	p.Header("pastrid_cache_fills_total", "Block cache fills (post-dedup decode count).", "counter")
	p.Sample("pastrid_cache_fills_total", float64(cs.Fills))
	p.Header("pastrid_cache_dedup_waits_total", "Reads coalesced onto another reader's in-flight fill.", "counter")
	p.Sample("pastrid_cache_dedup_waits_total", float64(cs.DedupWaits))
	p.Header("pastrid_cache_evictions_total", "Blocks evicted from the cache.", "counter")
	p.Sample("pastrid_cache_evictions_total", float64(cs.Evictions))
	p.Header("pastrid_cache_entries", "Blocks resident in the cache.", "gauge")
	p.Sample("pastrid_cache_entries", float64(cs.Entries))
	p.Header("pastrid_cache_bytes", "Decoded bytes resident in the cache.", "gauge")
	p.Sample("pastrid_cache_bytes", float64(cs.Bytes))

	p.Header("pastrid_tenant_store_bytes", "Committed store bytes per tenant.", "gauge")
	for _, t := range s.cfg.tenantNames() {
		p.Sample("pastrid_tenant_store_bytes", float64(s.st.Usage(t)), "tenant", t)
	}

	// Process identity: start time + uptime make rate() sane across
	// restarts, and build_info pins what binary produced the scrape.
	p.Header("process_start_time_seconds", "Unix time the process started.", "gauge")
	p.Sample("process_start_time_seconds", float64(processStart.Unix()))
	p.Header("pastrid_uptime_seconds", "Seconds since process start.", "gauge")
	p.Sample("pastrid_uptime_seconds", time.Since(processStart).Seconds())
	p.Header("pastrid_build_info", "Build metadata; value is always 1.", "gauge")
	p.Sample("pastrid_build_info", 1, "version", Version, "go_version", runtime.Version())

	if s.profiles != nil {
		ps := s.profiles.Stats()
		p.Header("pastrid_profile_captures_total", "Profiles captured into the profile ring.", "counter")
		p.Sample("pastrid_profile_captures_total", float64(ps.Captures))
		p.Header("pastrid_profile_skipped_total", "Profile captures skipped (CPU profiler busy or failed).", "counter")
		p.Sample("pastrid_profile_skipped_total", float64(ps.Skipped))
		p.Header("pastrid_profile_pruned_total", "Profiles pruned from the ring.", "counter")
		p.Sample("pastrid_profile_pruned_total", float64(ps.Pruned))
		p.Header("pastrid_profile_ring_entries", "Profiles resident in the ring.", "gauge")
		p.Sample("pastrid_profile_ring_entries", float64(ps.Entries))
		p.Header("pastrid_profile_ring_bytes", "Bytes of profiles resident in the ring.", "gauge")
		p.Sample("pastrid_profile_ring_bytes", float64(ps.Bytes))
	}
	p.Header("pastrid_history_samples", "Samples resident in the metrics history ring.", "gauge")
	p.Sample("pastrid_history_samples", float64(s.history.Len()))

	// The SLO families come from the most recent evaluation (sampler or
	// /debug/slo hit); before the first evaluation they are absent.
	slo.WritePrometheus(w, s.lastSLO.Load())

	telemetry.WriteTenantPrometheus(w, s.collectors)
	telemetry.WriteRuntimePrometheus(w)
}

// processStart anchors process_start_time_seconds and the uptime
// gauge.
var processStart = time.Now()

// Version identifies the build in pastrid_build_info; override with
// -ldflags "-X repro/internal/server.Version=v1.2.3".
var Version = "dev"
