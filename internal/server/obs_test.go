package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry/slo"
	"repro/internal/telemetry/tsdb"
)

// getJSON fetches a path and decodes the body into out, returning the
// status code.
func getJSON(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("parsing %s body: %v\n%s", path, err, body)
		}
	}
	return resp.StatusCode
}

// TestReadyzLifecycle walks /readyz through its states: ready while
// serving, 503 while draining, 503 once the store closes.
func TestReadyzLifecycle(t *testing.T) {
	cfg := testConfig(t, core.Defaults(4, 9, 1e-10), 2)
	cfg.SLO.SampleIntervalMS = -1 // no background sampler in this test
	srv, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var body readyzBody
	if code := getJSON(t, ts, "/readyz", &body); code != http.StatusOK || !body.Ready {
		t.Fatalf("fresh daemon: status %d ready=%v, want 200 ready", code, body.Ready)
	}
	for name, c := range body.Checks {
		if !c.OK {
			t.Fatalf("fresh daemon: check %s not ok: %+v", name, c)
		}
	}

	srv.draining.Store(true)
	if code := getJSON(t, ts, "/readyz", &body); code != http.StatusServiceUnavailable || body.Ready {
		t.Fatalf("draining: status %d ready=%v, want 503 not-ready", code, body.Ready)
	}
	if body.Checks["drain"].OK || !body.Checks["store"].OK {
		t.Fatalf("draining: wrong failing check: %+v", body.Checks)
	}
	srv.draining.Store(false)

	srv.st.Close() // test is forcing the closed state; defer Close tolerates it
	if code := getJSON(t, ts, "/readyz", &body); code != http.StatusServiceUnavailable || body.Checks["store"].OK {
		t.Fatalf("closed store: status %d checks=%+v, want 503 with store failing", code, body.Checks)
	}
}

// TestReadyzQuotaHeadroom proves readiness flips only when every
// quota'd tenant is effectively full: fill one tenant to its exact
// quota (by reopening the store dir with quota = current usage) and
// keep a second, unconstrained quota'd tenant — the daemon must stay
// ready until that one is full too.
func TestReadyzQuotaHeadroom(t *testing.T) {
	cfg := testConfig(t, core.Defaults(4, 9, 1e-10), 2)
	cfg.SLO.SampleIntervalMS = -1
	cfg.Tenants = map[string]TenantConfig{"full": {QuotaBytes: 1 << 20}, "roomy": {QuotaBytes: 1 << 20}}
	srv, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	upload(t, ts, "full", "s1", wireBody(4))
	used := srv.st.Usage("full")
	if used <= 0 {
		t.Fatal("upload committed no bytes")
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Same store dir, quota shrunk to exactly the committed usage: the
	// "full" tenant now has zero headroom.
	cfg.Tenants = map[string]TenantConfig{"full": {QuotaBytes: used}, "roomy": {QuotaBytes: 1 << 20}}
	srv2, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	var body readyzBody
	if code := getJSON(t, ts2, "/readyz", &body); code != http.StatusOK || !body.Ready {
		t.Fatalf("one of two quota'd tenants full: status %d ready=%v (%+v), want ready", code, body.Ready, body.Checks)
	}

	// Drop the roomy tenant: now EVERY quota'd tenant is full.
	cfg.Tenants = map[string]TenantConfig{"full": {QuotaBytes: used}}
	srv3, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv3.Close()
	ts3 := httptest.NewServer(srv3.Handler())
	defer ts3.Close()
	if code := getJSON(t, ts3, "/readyz", &body); code != http.StatusServiceUnavailable || body.Checks["quota_headroom"].OK {
		t.Fatalf("all quota'd tenants full: status %d checks=%+v, want 503 with quota_headroom failing", code, body.Checks)
	}
}

// TestDebugSLOHandler drives traffic and checks the on-demand /debug/slo
// evaluation: the report covers the configured tenant with all four
// objectives, and the evaluation does NOT add a sample to the history
// ring (reads must not perturb the sampler's cadence).
func TestDebugSLOHandler(t *testing.T) {
	cfg := testConfig(t, core.Defaults(4, 9, 1e-10), 2)
	cfg.SLO.SampleIntervalMS = -1
	srv, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	upload(t, ts, "it", "s1", wireBody(3))
	readBlock(t, ts, "it", "s1", 0)

	var rep slo.Report
	if code := getJSON(t, ts, "/debug/slo", &rep); code != http.StatusOK {
		t.Fatalf("/debug/slo: status %d", code)
	}
	tr, ok := rep.Tenants["it"]
	if !ok {
		t.Fatalf("report missing tenant it: %v", rep.TenantNames())
	}
	if len(tr.Objectives) != len(slo.Objectives()) {
		t.Fatalf("tenant report has %d objectives, want %d", len(tr.Objectives), len(slo.Objectives()))
	}
	if st, ok := rep.Find("it", slo.ErrorRate); !ok || st.LifetimeGood < 2 {
		t.Fatalf("error_rate lifetime_good = %v (ok=%v), want ≥2 after upload+read", st.LifetimeGood, ok)
	}
	if st, _ := rep.Find("it", slo.ReadLatency); st.LifetimeGood+st.LifetimeBad != 1 {
		t.Fatalf("read_latency lifetime events = %v, want exactly the 1 block read", st.LifetimeGood+st.LifetimeBad)
	}
	if rep.WorstState != slo.StateOK {
		t.Fatalf("healthy daemon reports worst_state %q", rep.WorstState)
	}
	if n := srv.history.Len(); n != 0 {
		t.Fatalf("/debug/slo added %d samples to the history ring", n)
	}

	// The scrape now carries the evaluation's pastrid_slo_* families.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := `pastrid_slo_state{tenant="it",objective="read_latency"}`; !containsLine(string(scrape), want) {
		t.Fatalf("scrape missing %s", want)
	}
}

func containsLine(s, prefix string) bool {
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != '\n' {
			i++
		}
		if len(s[:i]) >= len(prefix) && s[:len(prefix)] == prefix {
			return true
		}
		if i == len(s) {
			break
		}
		s = s[i+1:]
	}
	return false
}

// TestSamplerFeedsHistory runs the background sampler at a tight
// interval and checks that /debug/history accumulates ordered samples
// carrying the expected series.
func TestSamplerFeedsHistory(t *testing.T) {
	cfg := testConfig(t, core.Defaults(4, 9, 1e-10), 2)
	cfg.SLO.SampleIntervalMS = 10
	cfg.SLO.HistoryDepth = 16
	srv, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	upload(t, ts, "it", "s1", wireBody(2))
	readBlock(t, ts, "it", "s1", 1)

	deadline := time.Now().Add(5 * time.Second)
	for srv.history.Len() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("sampler produced %d samples in 5s, want ≥3", srv.history.Len())
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := ts.Client().Get(ts.URL + "/debug/history")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	h, err := tsdb.ParseHistory(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if h.Depth != 16 || len(h.Samples) < 3 {
		t.Fatalf("history depth=%d samples=%d, want depth 16 and ≥3 samples", h.Depth, len(h.Samples))
	}
	last := h.Samples[len(h.Samples)-1]
	if last.Get(tsdb.ForTenant("it", tsdb.KeyUploadsTotal)) != 1 {
		t.Fatalf("last sample uploads_total = %v, want 1", last.Get(tsdb.ForTenant("it", tsdb.KeyUploadsTotal)))
	}
	if last.Get(tsdb.ForTenant("it", tsdb.KeyBlocksTotal)) != 2 {
		t.Fatalf("last sample blocks_total = %v, want 2", last.Get(tsdb.ForTenant("it", tsdb.KeyBlocksTotal)))
	}
	if last.Get(tsdb.KeyGoroutines) <= 0 || last.Get(tsdb.KeyHeapAllocBytes) <= 0 {
		t.Fatal("last sample missing process-wide series")
	}

	// The sampler also left a report behind for the scrape.
	if srv.lastSLO.Load() == nil {
		t.Fatal("sampler never stored an SLO report")
	}
	// Shutdown must stop the sampler (and be idempotent about it).
	srv.stopSampler()
	srv.stopSampler()
	n := srv.history.Len()
	time.Sleep(30 * time.Millisecond)
	if srv.history.Len() != n {
		t.Fatal("sampler kept running after stopSampler")
	}
}

// TestSLOWindowsCountEventsBeforeFirstTick is the regression test for
// the sampler dropping early events: requests served before the first
// tick must land in the fast window, so on a young ring every
// objective's fast_good equals its lifetime_good.
func TestSLOWindowsCountEventsBeforeFirstTick(t *testing.T) {
	cfg := testConfig(t, core.Defaults(4, 9, 1e-10), 2)
	cfg.SLO.SampleIntervalMS = int(time.Hour / time.Millisecond) // no tick fires during the test
	srv, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	upload(t, ts, "it", "s1", wireBody(2))
	readBlock(t, ts, "it", "s1", 0)
	readBlock(t, ts, "it", "s1", 1)

	// What the first tick does, without waiting an interval for it.
	srv.sampleTick(time.Now(), make(map[string]slo.State))
	rep := srv.lastSLO.Load()
	if rep == nil {
		t.Fatal("sampleTick stored no SLO report")
	}
	seen := map[slo.Objective]float64{}
	for _, st := range rep.Tenants["it"].Objectives {
		if st.FastGood != st.LifetimeGood {
			t.Errorf("%s: fast_good %v, lifetime_good %v", st.Objective, st.FastGood, st.LifetimeGood)
		}
		seen[st.Objective] = st.LifetimeGood
	}
	if seen[slo.UploadLatency] != 1 || seen[slo.ReadLatency] != 2 {
		t.Fatalf("lifetime_good upload=%v read=%v, want 1 and 2", seen[slo.UploadLatency], seen[slo.ReadLatency])
	}
}
