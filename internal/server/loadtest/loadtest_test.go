// Package loadtest checks pastrid's tracing and SLO verdicts under
// concurrent client load from outside the server package: the tests
// see only server.New and the HTTP handler, and read the tracer and
// SLO state back through /debug/traces, /metrics and /debug/slo, as an
// operator would. The package has no non-test code.
package loadtest

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/telemetry/slo"
)

const (
	writers          = 4
	streamsPerWriter = 2
	blocksPerStream  = 8
)

var tenants = []string{"fleet-a", "fleet-b"}

// codec is the paper's 4×9 block geometry at a 1e-10 error bound.
var codec = core.Defaults(4, 9, 1e-10)

// stream is one upload and the serial compress→decompress of its data,
// the oracle its reads are compared against.
type stream struct {
	tenant, id string
	raw, dec   []byte // little-endian float64
}

// newStreams builds writers×streamsPerWriter ERI-shaped streams,
// assigned to the tenants round-robin by writer: each block's
// sub-blocks repeat one random pattern at random scales, plus noise of
// a few error bounds.
func newStreams(t *testing.T) []stream {
	t.Helper()
	rng := rand.New(rand.NewPCG(1, 0))
	streams := make([]stream, writers*streamsPerWriter)
	pattern := make([]float64, codec.SBSize)
	for i := range streams {
		vals := make([]float64, 0, blocksPerStream*codec.BlockSize())
		for range blocksPerStream {
			for j := range pattern {
				pattern[j] = 2*rng.Float64() - 1
			}
			for range codec.NumSB {
				scale := 1e-6 * rng.Float64()
				for _, p := range pattern {
					vals = append(vals, scale*p+40*codec.ErrorBound*(2*rng.Float64()-1))
				}
			}
		}
		comp, err := core.Compress(vals, codec, nil)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := core.Decompress(comp, 1)
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = stream{
			tenant: tenants[i/streamsPerWriter%len(tenants)],
			id:     fmt.Sprintf("s%d", i),
			raw:    float64Bytes(vals),
			dec:    float64Bytes(dec),
		}
	}
	return streams
}

func float64Bytes(vals []float64) []byte {
	out := make([]byte, 0, len(vals)*8)
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// newServer starts an in-process pastrid serving both tenants. mut,
// when non-nil, adjusts the config before startup.
func newServer(t *testing.T, cacheBytes int64, mut func(*server.Config)) *httptest.Server {
	t.Helper()
	cfg := server.DefaultConfig()
	cfg.Listen = "127.0.0.1:0"
	cfg.StoreDir = t.TempDir()
	cfg.CacheBytes = cacheBytes
	cfg.Workers = 2
	cfg.NumSB = codec.NumSB
	cfg.SBSize = codec.SBSize
	cfg.DefaultErrorBound = codec.ErrorBound
	cfg.Tenants = make(map[string]server.TenantConfig, len(tenants))
	for _, tn := range tenants {
		cfg.Tenants[tn] = server.TenantConfig{}
	}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := server.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

// call sends one request as tenant and returns the response body and
// the trace ID of its traceparent header (empty when absent). A status
// other than want is an error; call never fails the test itself, so
// load goroutines use it directly.
func call(client *http.Client, method, url, tenant string, body []byte, want int) ([]byte, string, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("X-Pastri-Tenant", tenant)
	resp, err := client.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode != want {
		return nil, "", fmt.Errorf("%s %s: status %d, want %d: %s", method, url, resp.StatusCode, want, out)
	}
	var traceID string
	if tp := resp.Header.Get("Traceparent"); len(tp) == 55 {
		traceID = tp[3:35]
	}
	return out, traceID, nil
}

// readSample is one read's client-side latency and trace ID.
type readSample struct {
	d       time.Duration
	traceID string
}

// runLoad uploads the streams from one goroutine per writer, then has
// readers goroutines issue readsPerReader random block reads each,
// every read compared byte for byte with the serial decode. It returns
// every read's sample. Load goroutines return their errors, and runLoad
// fails the test from the test goroutine.
func runLoad(t *testing.T, ts *httptest.Server, streams []stream, readers, readsPerReader int) []readSample {
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
	blockBytes := codec.BlockSize() * 8
	samples := make([][]readSample, readers)
	parallel(t, readers, func(r int) error {
		rng := rand.New(rand.NewPCG(uint64(r), 1))
		for range readsPerReader {
			s, b := streams[rng.IntN(len(streams))], rng.IntN(blocksPerStream)
			url := fmt.Sprintf("%s/v1/streams/%s/blocks/%d", ts.URL, s.id, b)
			start := time.Now()
			got, traceID, err := call(client, http.MethodGet, url, s.tenant, nil, http.StatusOK)
			if err != nil {
				return err
			}
			samples[r] = append(samples[r], readSample{time.Since(start), traceID})
			if !bytes.Equal(got, s.dec[b*blockBytes:(b+1)*blockBytes]) {
				return fmt.Errorf("%s/%s block %d: served bytes differ from the serial decode", s.tenant, s.id, b)
			}
		}
		return nil
	})
	return slices.Concat(samples...)
}

// parallel runs fn(0), …, fn(n-1) on n goroutines, waits for all of
// them, and fails the test with every error they returned.
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

// get fetches path and returns its body, failing the test on any
// status but 200.
func get(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	body, _, err := call(ts.Client(), http.MethodGet, ts.URL+path, "", nil, http.StatusOK)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// sloReport fetches the on-demand /debug/slo evaluation and checks
// that it covers every tenant with every objective.
func sloReport(t *testing.T, ts *httptest.Server) slo.Report {
	t.Helper()
	var rep slo.Report
	if err := json.Unmarshal(get(t, ts, "/debug/slo"), &rep); err != nil {
		t.Fatal(err)
	}
	for _, tn := range tenants {
		for _, o := range slo.Objectives() {
			if _, ok := rep.Find(tn, o); !ok {
				t.Errorf("/debug/slo has no %s objective for %s", o, tn)
			}
		}
	}
	return rep
}

// scrape sums the samples of each named series in the /metrics
// exposition, over all label sets.
func scrape(t *testing.T, ts *httptest.Server, names ...string) map[string]uint64 {
	t.Helper()
	sums := make(map[string]uint64, len(names))
	sc := bufio.NewScanner(bytes.NewReader(get(t, ts, "/metrics")))
	for sc.Scan() {
		line := sc.Text()
		series, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(series, "{")
		if !slices.Contains(names, name) {
			continue
		}
		n, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			t.Fatalf("/metrics: %q: %v", line, err)
		}
		sums[name] += n
	}
	return sums
}

// TestFleetSLOVerdicts: after a clean concurrent run, /debug/slo
// covers every tenant with every objective, error_rate (fed only by
// 5xx responses, of which a clean run has none) is ok, and each
// tenant's measured read p99 is above zero.
func TestFleetSLOVerdicts(t *testing.T) {
	ts := newServer(t, 64<<20, nil)
	runLoad(t, ts, newStreams(t), 8, 50)

	rep := sloReport(t, ts)
	for _, tn := range tenants {
		if st, _ := rep.Find(tn, slo.ErrorRate); st.State != slo.StateOK || st.LifetimeBad != 0 {
			t.Errorf("%s error_rate: state=%s bad=%v after a clean run", tn, st.State, st.LifetimeBad)
		}
		if p99 := rep.Tenants[tn].Latency.ReadP99MS; p99 <= 0 {
			t.Errorf("%s read p99 = %v ms, want > 0", tn, p99)
		}
	}
}

// TestFleetSLOFastBurn gives one tenant an unmeetable read threshold
// (about 1 ns) behind a two-block cache: every read misses the latency
// target, the error budget burns at the maximum rate, and the
// /debug/slo verdict for that tenant's read objective, and for the
// report as a whole, is fast_burn.
func TestFleetSLOFastBurn(t *testing.T) {
	ts := newServer(t, 2*int64(codec.BlockSize())*8, func(cfg *server.Config) {
		cfg.Tenants["fleet-a"] = server.TenantConfig{SLO: server.TenantSLOConfig{ReadP99MS: 1e-6}}
	})
	runLoad(t, ts, newStreams(t), 4, 30)

	rep := sloReport(t, ts)
	st, ok := rep.Find("fleet-a", slo.ReadLatency)
	if !ok {
		t.Fatal("/debug/slo has no fleet-a read_latency")
	}
	if st.State != slo.StateFastBurn {
		t.Fatalf("fleet-a read_latency state = %s (fast %.1f slow %.1f), want fast_burn", st.State, st.FastBurn, st.SlowBurn)
	}
	if st.LifetimeGood != 0 || st.LifetimeBad == 0 {
		t.Fatalf("fleet-a read_latency: good=%v bad=%v, want every read to breach the 1 ns threshold", st.LifetimeGood, st.LifetimeBad)
	}
	if rep.WorstState != slo.StateFastBurn {
		t.Fatalf("worst_state = %s, want fast_burn", rep.WorstState)
	}
}

// TestFleetTraceRetention runs a keep-everything tracer (keep_fraction
// 1, a ring deeper than the request count), so retention is exact:
// /debug/traces holds every request with child spans under the roots,
// the slowest 1% of reads among them, and the tracer's /metrics
// counters agree and show no dropped span. It says nothing about tail
// sampling under the production configuration.
func TestFleetTraceRetention(t *testing.T) {
	const (
		readers, readsPerReader = 8, 50
		reads                   = readers * readsPerReader
		requests                = writers*streamsPerWriter + reads
	)
	ts := newServer(t, 64<<20, func(cfg *server.Config) {
		cfg.Trace = server.TraceConfig{KeepFraction: 1, RingDepth: requests + 16}
	})
	samples := runLoad(t, ts, newStreams(t), readers, readsPerReader)

	var doc struct {
		TraceEvents []struct {
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(get(t, ts, "/debug/traces"), &doc); err != nil {
		t.Fatal(err)
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
	slices.SortFunc(samples, func(a, b readSample) int { return cmp.Compare(b.d, a.d) })
	for _, s := range samples[:reads/100] {
		if s.traceID == "" || !retained[s.traceID] {
			t.Errorf("the trace of a slowest-1%% read (%v, trace %q) was not retained", s.d, s.traceID)
		}
	}

	m := scrape(t, ts, "pastrid_traces_retained_total", "pastrid_trace_spans_dropped_total")
	if got := m["pastrid_traces_retained_total"]; got != requests {
		t.Errorf("pastrid_traces_retained_total = %d, want %d", got, requests)
	}
	if got := m["pastrid_trace_spans_dropped_total"]; got != 0 {
		t.Errorf("pastrid_trace_spans_dropped_total = %d, want 0", got)
	}
}
