package server

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blockcache"
	"repro/internal/core"
	"repro/internal/telemetry/slo"
	"repro/internal/telemetry/trace"
)

// testStream is one upload and the serial compress→decompress of its
// data, the oracle its reads are compared against.
type testStream struct {
	tenant, id string
	raw, dec   []byte // little-endian float64
}

// newTestStream builds ERI-shaped data: each block's sub-blocks repeat
// one random pattern at random scales, plus noise of a few error
// bounds, so the stream compresses like integral tapes rather than
// white noise.
func newTestStream(t *testing.T, cfg core.Config, tenant, id string, seed uint64, blocks int) testStream {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0))
	vals := make([]float64, 0, blocks*cfg.BlockSize())
	pattern := make([]float64, cfg.SBSize)
	for range blocks {
		for i := range pattern {
			pattern[i] = 2*rng.Float64() - 1
		}
		for range cfg.NumSB {
			scale := 1e-6 * rng.Float64()
			for _, p := range pattern {
				vals = append(vals, scale*p+40*cfg.ErrorBound*(2*rng.Float64()-1))
			}
		}
	}
	comp, err := core.Compress(vals, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.Decompress(comp, 1)
	if err != nil {
		t.Fatal(err)
	}
	return testStream{tenant: tenant, id: id, raw: float64Bytes(vals), dec: float64Bytes(dec)}
}

func float64Bytes(vals []float64) []byte {
	out := make([]byte, 0, len(vals)*8)
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// parallel runs fn(0), …, fn(n-1) on n goroutines, waits for all of
// them, and fails the test from the test goroutine with every error
// they returned.
func parallel(t *testing.T, n int, fn func(i int) error) {
	t.Helper()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

// The traffic of TestConcurrentTenants and TestSlowestRequestsRetained:
// writers upload two tenants' streams at once, then readers read
// random blocks of them at once.
const (
	writers          = 4
	streamsPerWriter = 2
	blocksPerStream  = 8
	readers          = 8
	readsPerReader   = 50
	reads            = readers * readsPerReader
	requests         = writers*streamsPerWriter + reads
)

var concurrentTenantNames = []string{"tenant-a", "tenant-b"}

// concurrentStreams builds the streams the concurrent traffic uploads,
// alternating between the two tenants by writer.
func concurrentStreams(t *testing.T, codec core.Config) []testStream {
	t.Helper()
	streams := make([]testStream, writers*streamsPerWriter)
	for i := range streams {
		tenant := concurrentTenantNames[i/streamsPerWriter%len(concurrentTenantNames)]
		streams[i] = newTestStream(t, codec, tenant, fmt.Sprintf("s%d", i), uint64(i+1), blocksPerStream)
	}
	return streams
}

// readSample is one read's client-side latency and trace ID.
type readSample struct {
	d       time.Duration
	traceID string
}

// runConcurrentTraffic uploads streams from writers goroutines, then
// reads random blocks from readers goroutines. Every read must match
// the serial decode byte for byte and carry a traceparent.
func runConcurrentTraffic(t *testing.T, ts *httptest.Server, streams []testStream, blockBytes int) []readSample {
	t.Helper()
	client := ts.Client()
	parallel(t, writers, func(w int) error {
		for _, s := range streams[w*streamsPerWriter : (w+1)*streamsPerWriter] {
			url := ts.URL + "/v1/streams?id=" + s.id
			if _, _, err := call(client, http.MethodPost, url, s.tenant, s.raw, http.StatusCreated); err != nil {
				return err
			}
		}
		return nil
	})

	samples := make([][]readSample, readers)
	parallel(t, readers, func(r int) error {
		rng := rand.New(rand.NewPCG(uint64(r), 1))
		for range readsPerReader {
			s, b := streams[rng.IntN(len(streams))], rng.IntN(blocksPerStream)
			start := time.Now()
			got, traceID, err := call(client, http.MethodGet, blockURL(ts.URL, s.id, b), s.tenant, nil, http.StatusOK)
			if err != nil {
				return err
			}
			samples[r] = append(samples[r], readSample{time.Since(start), traceID})
			if !bytes.Equal(got, s.dec[b*blockBytes:(b+1)*blockBytes]) {
				return fmt.Errorf("%s/%s block %d: served bytes differ from the serial decode", s.tenant, s.id, b)
			}
			if traceID == "" {
				return fmt.Errorf("%s/%s block %d: response has no traceparent", s.tenant, s.id, b)
			}
		}
		return nil
	})
	return slices.Concat(samples...)
}

// TestConcurrentTenants uploads and reads the streams of two tenants
// from many goroutines at once. Every read must match the serial
// decode byte for byte, the cache counters must account for every
// read, /debug/slo must cover both tenants with every objective, and
// /debug/traces must hold every request, the slowest 1% of reads among
// them. The tracer keeps everything (keep_fraction 1, a ring deeper
// than the request count), so the retention checks are exact;
// TestSlowestRequestsRetained covers tail sampling under the production
// configuration.
func TestConcurrentTenants(t *testing.T) {
	codec := core.Defaults(4, 9, 1e-10)
	blockBytes := codec.BlockSize() * 8
	tenants := concurrentTenantNames
	streams := concurrentStreams(t, codec)

	for _, tc := range []struct {
		name       string
		cacheBytes int64
		checkCache func(t *testing.T, st blockcache.Stats)
	}{
		{"cache holds the working set", 64 << 20, func(t *testing.T, st blockcache.Stats) {
			// Nothing is evicted, so every block decodes at most once
			// and some reads are served from the cache.
			if st.Evictions != 0 {
				t.Errorf("evictions=%d, want 0 with a cache that holds every block", st.Evictions)
			}
			if distinct := uint64(len(streams) * blocksPerStream); st.Fills > distinct {
				t.Errorf("fills=%d exceed the %d distinct blocks: a block decoded twice", st.Fills, distinct)
			}
			if st.Hits == 0 {
				t.Error("no cache hits")
			}
		}},
		{"two-block cache", 2 * int64(blockBytes), func(t *testing.T, st blockcache.Stats) {
			if st.Evictions == 0 {
				t.Error("a two-block cache never evicted")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t, codec, 2)
			cfg.CacheBytes = tc.cacheBytes
			cfg.Tenants = map[string]TenantConfig{tenants[0]: {}, tenants[1]: {}}
			cfg.Trace = TraceConfig{KeepFraction: 1, RingDepth: requests + 16}
			srv, err := New(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			all := runConcurrentTraffic(t, ts, streams, blockBytes)

			// Each read is exactly one cache lookup, and each miss one
			// fill.
			st := srv.cache.Stats()
			if got := st.Hits + st.Misses + st.DedupWaits; got != reads {
				t.Errorf("hits+misses+dedup_waits=%d, want one lookup per read (%d)", got, reads)
			}
			if st.Fills != st.Misses {
				t.Errorf("fills=%d misses=%d: want one fill per miss", st.Fills, st.Misses)
			}
			tc.checkCache(t, st)

			var doc struct {
				TraceEvents []traceEventJSON `json:"traceEvents"`
			}
			if code := getJSON(t, ts, "/debug/traces", &doc); code != http.StatusOK {
				t.Fatalf("/debug/traces: status %d", code)
			}
			retained := make(map[string]bool)
			spans := 0
			for _, ev := range doc.TraceEvents {
				if ev.Ph == "X" {
					spans++
					retained[ev.Args["trace_id"]] = true
				}
			}
			if len(retained) != requests {
				t.Errorf("/debug/traces holds %d traces, want every request (%d)", len(retained), requests)
			}
			if spans <= len(retained) {
				t.Errorf("%d spans in %d traces: want children under every root", spans, len(retained))
			}
			slices.SortFunc(all, func(a, b readSample) int { return cmp.Compare(b.d, a.d) })
			for _, s := range all[:reads/100] {
				if !retained[s.traceID] {
					t.Errorf("the trace of a slowest-1%% read (%v, trace %s) was not retained", s.d, s.traceID)
				}
			}
			trs := srv.tracer.Stats()
			if trs.TracesRetained != requests {
				t.Errorf("tracer retained %d traces, want %d", trs.TracesRetained, requests)
			}
			if trs.SpansDropped != 0 {
				t.Errorf("tracer dropped %d spans", trs.SpansDropped)
			}

			var rep slo.Report
			if code := getJSON(t, ts, "/debug/slo", &rep); code != http.StatusOK {
				t.Fatalf("/debug/slo: status %d", code)
			}
			for _, tn := range tenants {
				for _, o := range slo.Objectives() {
					if _, ok := rep.Find(tn, o); !ok {
						t.Errorf("/debug/slo has no %s objective for %s", o, tn)
					}
				}
				// Only 5xx responses are bad error_rate events, and a
				// clean run has none.
				if st, _ := rep.Find(tn, slo.ErrorRate); st.State != slo.StateOK || st.LifetimeBad != 0 {
					t.Errorf("%s error_rate: state=%s bad=%v after a clean run", tn, st.State, st.LifetimeBad)
				}
				if p99 := rep.Tenants[tn].Latency.ReadP99MS; p99 <= 0 {
					t.Errorf("%s read p99 = %v ms, want > 0", tn, p99)
				}
			}
		})
	}
}

// TestSlowestRequestsRetained runs TestConcurrentTenants' traffic under
// the production trace configuration, DefaultConfig().Trace: every
// request recorded, 1% kept at random, and a request kept for latency
// when it ranks in its route's slowest 1% so far. For each traced
// route, the request the server timed slowest (duration_us in the JSON
// request log) must have a retained trace kept for latency, and latency
// keeps must stay at most 5% of requests. Only the slowest request per
// route is asserted exactly: the rule is online and judges each request
// against the ones before it, so a slow read that comes after slower
// ones can be dropped.
//
// The views of one request must also agree, since the middleware reads
// the clock once at entry and once at exit: every retained trace's root
// lasts exactly its log line's duration_us, and per route the
// pastrid_request_latency_seconds histogram counts the logged requests
// and sums their durations to the log's µs truncation.
func TestSlowestRequestsRetained(t *testing.T) {
	codec := core.Defaults(4, 9, 1e-10)
	streams := concurrentStreams(t, codec)
	cfg := testConfig(t, codec, 2)
	cfg.CacheBytes = 64 << 20
	cfg.Tenants = map[string]TenantConfig{concurrentTenantNames[0]: {}, concurrentTenantNames[1]: {}}
	cfg.Trace = DefaultConfig().Trace
	var logs bytes.Buffer
	srv, err := New(cfg, slog.New(slog.NewJSONHandler(&logs, nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	runConcurrentTraffic(t, ts, streams, codec.BlockSize()*8)
	ts.Close() // waits for the handlers, so every request is finished and logged

	type logged struct {
		Msg        string `json:"msg"`
		Route      string `json:"http_route"`
		TraceID    string `json:"trace_id"`
		DurationUS int64  `json:"duration_us"`
	}
	slowest := make(map[string][]logged) // route → its requests with the largest duration_us
	byTrace := make(map[string]logged)
	count := make(map[string]int64) // route → logged requests
	sumUS := make(map[string]int64) // route → their summed duration_us
	records := 0
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec logged
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparseable log line %q: %v", line, err)
		}
		if rec.Msg != "request" {
			continue
		}
		records++
		byTrace[rec.TraceID] = rec
		count[rec.Route]++
		sumUS[rec.Route] += rec.DurationUS
		switch cur := slowest[rec.Route]; {
		case len(cur) == 0 || rec.DurationUS > cur[0].DurationUS:
			slowest[rec.Route] = []logged{rec}
		case rec.DurationUS == cur[0].DurationUS:
			slowest[rec.Route] = append(cur, rec)
		}
	}
	if records != requests {
		t.Fatalf("request log has %d records, want %d", records, requests)
	}

	reasons := make(map[string]string) // trace ID → keep reason
	for _, ft := range srv.tracer.Ring() {
		reasons[ft.TraceID] = ft.KeepReason
		rec, ok := byTrace[ft.TraceID]
		if !ok {
			t.Errorf("retained trace %s has no request log line", ft.TraceID)
			continue
		}
		if got := ft.DurationNS / 1000; got != rec.DurationUS {
			t.Errorf("%s trace %s: root lasts %d µs, its log line %d µs", rec.Route, ft.TraceID, got, rec.DurationUS)
		}
	}
	if len(reasons) == 0 {
		t.Fatal("no trace retained")
	}
	for _, route := range []string{routeUpload, routeReadBlock} {
		tied := slowest[route]
		if len(tied) == 0 {
			t.Fatalf("no %s request in the log", route)
		}
		if !slices.ContainsFunc(tied, func(r logged) bool { return reasons[r.TraceID] == trace.ReasonLatency }) {
			t.Errorf("slowest %s (%d µs, trace %s) kept as %q, want %q",
				route, tied[0].DurationUS, tied[0].TraceID, reasons[tied[0].TraceID], trace.ReasonLatency)
		}
	}
	if n := srv.tracer.Stats().RetainedByReason[trace.ReasonLatency]; n*20 > requests {
		t.Errorf("%d of %d requests kept for latency, want at most 5%%", n, requests)
	}

	scrape := httptest.NewRecorder()
	srv.Handler().ServeHTTP(scrape, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, route := range []string{routeUpload, routeReadBlock} {
		const latency = "pastrid_request_latency_seconds"
		label := `{route="` + route + `"}`
		if n := metricValue(t, scrape.Body.String(), latency+"_count"+label); n != float64(count[route]) {
			t.Errorf("%s: %s_count = %g, want the %d logged requests", route, latency, n, count[route])
		}
		// The histogram sums exact nanoseconds; duration_us truncates
		// each request to whole µs, so the sum exceeds 1000× the logged
		// sum by less than 1000 ns per request.
		sumNS := int64(math.Round(metricValue(t, scrape.Body.String(), latency+"_sum"+label) * 1e9))
		if gap := sumNS - 1000*sumUS[route]; gap < 0 || gap >= 1000*count[route] {
			t.Errorf("%s: %s_sum = %d ns, logged %d µs over %d requests: gap %d ns outside [0, %d)",
				route, latency, sumNS, sumUS[route], count[route], gap, 1000*count[route])
		}
	}
}

// metricValue returns the value of the one sample in a Prometheus text
// exposition whose series (name and labels) is exactly series.
func metricValue(t *testing.T, exposition, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("/metrics: %q: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no sample %s", series)
	return 0
}
