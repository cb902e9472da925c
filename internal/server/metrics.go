package server

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
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

// latencyBuckets are the fixed upper bounds (seconds) of the request
// latency histogram. Fixed buckets keep the scrape shape stable across
// runs, which is what lets the wire-protocol golden test pin the
// series set.
var latencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

const latencyBucketCount = 12 // len(latencyBuckets) + the +Inf bucket

// exemplar is one retained trace pinned to a histogram bucket, emitted
// OpenMetrics-style so a dashboard can jump from a latency spike to
// the exact trace that lives in /debug/traces.
type exemplar struct {
	traceID string
	value   float64 // observed latency, seconds
	tsUnix  float64 // observation time, unix seconds
}

// routeHist is one route's latency histogram: per-bucket counts (made
// cumulative at exposition time) plus the most recent retained-trace
// exemplar per bucket.
type routeHist struct {
	counts    [latencyBucketCount]uint64
	sum       float64
	exemplars [latencyBucketCount]exemplar
}

// latencyBucket returns the index of the first bucket holding sec.
func latencyBucket(sec float64) int {
	for i, ub := range latencyBuckets {
		if sec <= ub {
			return i
		}
	}
	return latencyBucketCount - 1 // +Inf
}

// tenantThresholds are one tenant's resolved slow-request cutoffs in
// seconds, fixed at construction so the hot path compares two floats.
type tenantThresholds struct {
	readSec   float64
	uploadSec float64
}

// tenantCounters are one tenant's SLO event counters plus read/upload
// latency bucket counts (same bounds as the route histograms) for
// quantile interpolation.
type tenantCounters struct {
	requests   uint64
	errors     uint64 // 5xx responses
	reads      uint64
	readSlow   uint64
	uploads    uint64
	uploadSlow uint64
	readHist   [latencyBucketCount]uint64
	uploadHist [latencyBucketCount]uint64
}

// serverMetrics aggregates pastrid's request-level counters: requests
// by route and status code, latency sums per route, the in-flight
// gauge, and per-tenant SLO event counters. Mutex-guarded maps are
// fine here — the critical sections are a few map updates, dwarfed by
// the request work around them.
type serverMetrics struct {
	inflight atomic.Int64

	thresholds map[string]tenantThresholds // fixed at startup; read-only

	mu       sync.Mutex
	requests map[string]map[int]uint64 // route → status → count
	durNS    map[string]uint64         // route → total ns
	durCount map[string]uint64
	hists    map[string]*routeHist      // route → latency histogram
	tenants  map[string]*tenantCounters // tenant → SLO events
}

func newServerMetrics(thresholds map[string]tenantThresholds) *serverMetrics {
	return &serverMetrics{
		thresholds: thresholds,
		requests:   make(map[string]map[int]uint64),
		durNS:      make(map[string]uint64),
		durCount:   make(map[string]uint64),
		hists:      make(map[string]*routeHist),
		tenants:    make(map[string]*tenantCounters),
	}
}

// observe records one finished request. traceID and retained come from
// the tracer: a request whose trace survived tail sampling stamps its
// trace ID as the exemplar of the latency bucket it landed in, so the
// exemplar always points at a trace that is actually in the ring.
// tenant feeds the SLO event counters and is counted only for
// configured tenants on non-quiet routes.
func (m *serverMetrics) observe(route, tenant string, status int, d time.Duration, traceID string, retained bool) {
	if d < 0 {
		d = 0
	}
	sec := d.Seconds()
	bkt := latencyBucket(sec)
	m.mu.Lock()
	byStatus := m.requests[route]
	if byStatus == nil {
		byStatus = make(map[int]uint64)
		m.requests[route] = byStatus
	}
	byStatus[status]++
	m.durNS[route] += uint64(d)
	m.durCount[route]++
	h := m.hists[route]
	if h == nil {
		h = &routeHist{}
		m.hists[route] = h
	}
	h.counts[bkt]++
	h.sum += sec
	if retained && traceID != "" {
		h.exemplars[bkt] = exemplar{
			traceID: traceID,
			value:   sec,
			tsUnix:  float64(time.Now().UnixNano()) / 1e9,
		}
	}
	if th, ok := m.thresholds[tenant]; ok && !quietRoute(route) {
		tc := m.tenants[tenant]
		if tc == nil {
			tc = &tenantCounters{}
			m.tenants[tenant] = tc
		}
		tc.requests++
		if status >= 500 {
			tc.errors++
		}
		switch route {
		case routeReadBlock:
			tc.reads++
			tc.readHist[bkt]++
			if sec > th.readSec { //lint:floatcmp-ok ordered comparison against a threshold, not equality
				tc.readSlow++
			}
		case routeUpload:
			tc.uploads++
			tc.uploadHist[bkt]++
			if sec > th.uploadSec { //lint:floatcmp-ok ordered comparison against a threshold, not equality
				tc.uploadSlow++
			}
		}
	}
	m.mu.Unlock()
}

// tenantSnapshot copies one tenant's counters (zero value when the
// tenant has no traffic yet).
func (m *serverMetrics) tenantSnapshot(tenant string) tenantCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	if tc := m.tenants[tenant]; tc != nil {
		return *tc
	}
	return tenantCounters{}
}

// bucketQuantile interpolates quantile q from fixed-bucket counts,
// returning seconds. Within a bucket the distribution is assumed
// uniform (the standard Prometheus histogram_quantile estimate); the
// +Inf bucket clamps to the last finite bound.
func bucketQuantile(counts *[latencyBucketCount]uint64, q float64) float64 {
	var total uint64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i, n := range counts {
		prev := float64(cum)
		cum += n
		if float64(cum) >= rank {
			if i >= len(latencyBuckets) {
				return latencyBuckets[len(latencyBuckets)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = latencyBuckets[i-1]
			}
			hi := latencyBuckets[i]
			if n == 0 {
				return hi
			}
			return lo + (hi-lo)*(rank-prev)/float64(n)
		}
	}
	return latencyBuckets[len(latencyBuckets)-1]
}

// tenantQuantiles interpolates every tenant's read/upload p50/p99 (in
// milliseconds) for the SLO report.
func (m *serverMetrics) tenantQuantiles() map[string]slo.Quantiles {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]slo.Quantiles, len(m.tenants))
	for t, tc := range m.tenants {
		out[t] = slo.Quantiles{
			ReadP50MS:   bucketQuantile(&tc.readHist, 0.50) * 1000,
			ReadP99MS:   bucketQuantile(&tc.readHist, 0.99) * 1000,
			UploadP50MS: bucketQuantile(&tc.uploadHist, 0.50) * 1000,
			UploadP99MS: bucketQuantile(&tc.uploadHist, 0.99) * 1000,
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
	s.WriteTraces(w) //lint:errdrop-ok debug export write; the client going away loses nothing
}

// handleMetrics renders the full Prometheus scrape: pastrid server
// families, tenant-labeled pipeline families, and Go runtime families.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b promBuf

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
	type durSample struct {
		route string
		ns    uint64
		n     uint64
	}
	var durs []durSample
	for route, ns := range m.durNS {
		durs = append(durs, durSample{route, ns, m.durCount[route]})
	}
	type histSample struct {
		route string
		hist  routeHist
	}
	var hists []histSample
	for route, h := range m.hists {
		hists = append(hists, histSample{route, *h})
	}
	m.mu.Unlock()
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].route != reqs[j].route {
			return reqs[i].route < reqs[j].route
		}
		return reqs[i].status < reqs[j].status
	})
	sort.Slice(durs, func(i, j int) bool { return durs[i].route < durs[j].route })
	sort.Slice(hists, func(i, j int) bool { return hists[i].route < hists[j].route })

	b.header("pastrid_requests_total", "HTTP requests by route and status.", "counter")
	for _, rs := range reqs {
		b.line(`pastrid_requests_total{route=%q,code="%d"} %d`, rs.route, rs.status, rs.n)
	}
	b.header("pastrid_request_duration_seconds", "Request wall-clock time by route.", "summary")
	for _, ds := range durs {
		b.line(`pastrid_request_duration_seconds_sum{route=%q} %g`, ds.route, float64(ds.ns)/1e9)
		b.line(`pastrid_request_duration_seconds_count{route=%q} %d`, ds.route, ds.n)
	}
	b.header("pastrid_request_latency_seconds", "Request latency histogram by route; exemplars carry retained trace IDs.", "histogram")
	for _, hs := range hists {
		var cum uint64
		for i := 0; i < latencyBucketCount; i++ {
			cum += hs.hist.counts[i]
			le := "+Inf"
			if i < len(latencyBuckets) {
				le = fmt.Sprintf("%g", latencyBuckets[i])
			}
			if ex := hs.hist.exemplars[i]; ex.traceID != "" {
				// OpenMetrics exemplar syntax: the trace that landed in
				// this bucket and survived tail sampling.
				b.line(`pastrid_request_latency_seconds_bucket{route=%q,le=%q} %d # {trace_id=%q} %g %.3f`,
					hs.route, le, cum, ex.traceID, ex.value, ex.tsUnix)
			} else {
				b.line(`pastrid_request_latency_seconds_bucket{route=%q,le=%q} %d`, hs.route, le, cum)
			}
		}
		b.line(`pastrid_request_latency_seconds_sum{route=%q} %g`, hs.route, hs.hist.sum)
		b.line(`pastrid_request_latency_seconds_count{route=%q} %d`, hs.route, cum)
	}
	b.header("pastrid_inflight_requests", "Requests currently being served.", "gauge")
	b.line("pastrid_inflight_requests %d", m.inflight.Load())

	ts := s.tracer.Stats()
	b.header("pastrid_traces_started_total", "Requests that entered the tracer (sampled or not).", "counter")
	b.line("pastrid_traces_started_total %d", ts.TracesStarted)
	b.header("pastrid_traces_sampled_total", "Requests head-sampled into span recording.", "counter")
	b.line("pastrid_traces_sampled_total %d", ts.TracesSampled)
	b.header("pastrid_traces_retained_total", "Finished traces kept by tail sampling, by reason.", "counter")
	for _, reason := range trace.KeepReasons {
		b.line(`pastrid_traces_retained_total{reason=%q} %d`, reason, ts.RetainedByReason[reason])
	}
	b.header("pastrid_trace_spans_total", "Spans recorded across sampled traces.", "counter")
	b.line("pastrid_trace_spans_total %d", ts.SpansStarted)
	b.header("pastrid_trace_spans_dropped_total", "Spans dropped by the per-trace span cap.", "counter")
	b.line("pastrid_trace_spans_dropped_total %d", ts.SpansDropped)
	b.header("pastrid_trace_ring_traces", "Retained traces resident in the export ring.", "gauge")
	b.line("pastrid_trace_ring_traces %d", ts.RingTraces)

	cs := s.cache.Stats()
	b.header("pastrid_cache_hits_total", "Block cache hits.", "counter")
	b.line("pastrid_cache_hits_total %d", cs.Hits)
	b.header("pastrid_cache_misses_total", "Block cache misses.", "counter")
	b.line("pastrid_cache_misses_total %d", cs.Misses)
	b.header("pastrid_cache_fills_total", "Block cache fills (post-dedup decode count).", "counter")
	b.line("pastrid_cache_fills_total %d", cs.Fills)
	b.header("pastrid_cache_dedup_waits_total", "Reads coalesced onto another reader's in-flight fill.", "counter")
	b.line("pastrid_cache_dedup_waits_total %d", cs.DedupWaits)
	b.header("pastrid_cache_evictions_total", "Blocks evicted from the cache.", "counter")
	b.line("pastrid_cache_evictions_total %d", cs.Evictions)
	b.header("pastrid_cache_entries", "Blocks resident in the cache.", "gauge")
	b.line("pastrid_cache_entries %d", cs.Entries)
	b.header("pastrid_cache_bytes", "Decoded bytes resident in the cache.", "gauge")
	b.line("pastrid_cache_bytes %d", cs.Bytes)

	b.header("pastrid_tenant_store_bytes", "Committed store bytes per tenant.", "gauge")
	for _, t := range s.cfg.tenantNames() {
		b.line(`pastrid_tenant_store_bytes{tenant=%q} %d`, t, s.st.Usage(t))
	}

	// Process identity: start time + uptime make rate() sane across
	// restarts, and build_info pins what binary produced the scrape.
	b.header("process_start_time_seconds", "Unix time the process started.", "gauge")
	b.line("process_start_time_seconds %d", processStart.Unix())
	b.header("pastrid_uptime_seconds", "Seconds since process start.", "gauge")
	b.line("pastrid_uptime_seconds %g", time.Since(processStart).Seconds())
	b.header("pastrid_build_info", "Build metadata; value is always 1.", "gauge")
	b.line(`pastrid_build_info{version=%q,go_version=%q} 1`, Version, runtime.Version())

	if s.profiles != nil {
		ps := s.profiles.Stats()
		b.header("pastrid_profile_captures_total", "Profiles captured into the profile ring.", "counter")
		b.line("pastrid_profile_captures_total %d", ps.Captures)
		b.header("pastrid_profile_skipped_total", "Profile captures skipped (CPU profiler busy or failed).", "counter")
		b.line("pastrid_profile_skipped_total %d", ps.Skipped)
		b.header("pastrid_profile_pruned_total", "Profiles pruned from the ring.", "counter")
		b.line("pastrid_profile_pruned_total %d", ps.Pruned)
		b.header("pastrid_profile_ring_entries", "Profiles resident in the ring.", "gauge")
		b.line("pastrid_profile_ring_entries %d", ps.Entries)
		b.header("pastrid_profile_ring_bytes", "Bytes of profiles resident in the ring.", "gauge")
		b.line("pastrid_profile_ring_bytes %d", ps.Bytes)
	}
	b.header("pastrid_history_samples", "Samples resident in the metrics history ring.", "gauge")
	b.line("pastrid_history_samples %d", s.history.Len())

	w.Write(b.buf) //lint:errdrop-ok scrape write; a failed scrape only hurts the departed scraper

	// The SLO families come from the most recent evaluation (sampler or
	// /debug/slo hit); before the first evaluation they are absent.
	slo.WritePrometheus(w, s.lastSLO.Load()) //lint:errdrop-ok scrape write; a failed scrape only hurts the departed scraper

	telemetry.WriteTenantPrometheus(w, s.collectors) //lint:errdrop-ok scrape write; a failed scrape only hurts the departed scraper
	telemetry.WriteRuntimePrometheus(w)              //lint:errdrop-ok scrape write; a failed scrape only hurts the departed scraper
}

// processStart anchors process_start_time_seconds and the uptime
// gauge.
var processStart = time.Now()

// Version identifies the build in pastrid_build_info; override with
// -ldflags "-X repro/internal/server.Version=v1.2.3".
var Version = "dev"

// promBuf accumulates exposition lines for the server families.
type promBuf struct{ buf []byte }

func (b *promBuf) header(name, help, typ string) {
	b.buf = fmt.Appendf(b.buf, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (b *promBuf) line(format string, args ...any) {
	b.buf = fmt.Appendf(b.buf, format+"\n", args...)
}
