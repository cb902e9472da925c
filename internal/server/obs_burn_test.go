package server

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/opsreport"
	"repro/internal/telemetry/profring"
	"repro/internal/telemetry/slo"
)

// TestSLOBurnEndToEnd is the full ops-layer integration: a tenant with
// an unmeetable read objective behind a starved cache burns its error
// budget under live load; the SAMPLER (not a /debug/slo request) must
// flip the verdict to fast_burn, force a CPU profile into the ring
// tagged with the tenant's goroutine label, keep /readyz green the
// whole time (SLO burn pages a human, it must not amplify the outage
// by failing readiness), and leave enough stage history that the ops
// report names decode as the dominant stage.
func TestSLOBurnEndToEnd(t *testing.T) {
	profDir := t.TempDir()
	cfg := DefaultConfig()
	cfg.Listen = "127.0.0.1:0"
	cfg.StoreDir = t.TempDir()
	cfg.CacheBytes = 1 // starved: every read decodes
	cfg.Workers = 2
	// ~1ns read p99: every read breaches, burn pegs at 1/(1-target).
	cfg.Tenants = map[string]TenantConfig{
		"tiny": {SLO: TenantSLOConfig{ReadP99MS: 1e-6}},
	}
	cfg.SLO.SampleIntervalMS = 20
	cfg.Profile = ProfileConfig{Dir: profDir, CPUSampleMS: 250, PeriodMS: 600_000}
	srv, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	upload(t, ts, "tiny", "s1", wireBody(4))

	// Continuous read load: keeps decode burning CPU under the tenant
	// label while the sampler evaluates and the profiler captures.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n = (n + 1) % 4 {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := call(ts.Client(), http.MethodGet, blockURL(ts.URL, "s1", n), "tiny", nil, http.StatusOK); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()

	// The sampler must detect the burn on its own cadence.
	deadline := time.Now().Add(10 * time.Second)
	var (
		rep  *slo.Report
		read slo.ObjectiveStatus
	)
	for time.Now().Before(deadline) {
		if rep = srv.lastSLO.Load(); rep != nil {
			if read, _ = rep.Find("tiny", slo.ReadLatency); read.State == slo.StateFastBurn {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if read.State != slo.StateFastBurn {
		t.Fatal("sampler never flipped tiny's read_latency to fast_burn")
	}
	// No read can beat 1 ns, so none counts as good, and the burn is
	// the report's worst state.
	if read.LifetimeGood != 0 {
		t.Fatalf("tiny read_latency: %v good and %v bad events, want no good ones", read.LifetimeGood, read.LifetimeBad)
	}
	if rep.WorstState != slo.StateFastBurn {
		t.Fatalf("worst_state = %s, want fast_burn", rep.WorstState)
	}

	// Readiness is deliberately orthogonal to SLO burn.
	var ready readyzBody
	if code := getJSON(t, ts, "/readyz", &ready); code != 200 || !ready.Ready {
		t.Fatalf("/readyz during burn: code=%d ready=%v checks=%+v", code, ready.Ready, ready.Checks)
	}

	// The transition must have forced a CPU capture attributed to the
	// tenant. CPU capture runs asynchronously for CPUSampleMS.
	var forced profring.Entry
	for time.Now().Before(deadline) {
		for _, e := range srv.profiles.Entries() {
			if e.Kind == profring.KindCPU && e.Reason == profring.ReasonSLOBurn {
				forced = e
				break
			}
		}
		if forced.Path != "" {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if forced.Path == "" {
		t.Fatal("no cpu/slo_burn profile landed in the ring")
	}
	if forced.Tenant != "tiny" {
		t.Fatalf("forced profile attributed to %q, want tiny", forced.Tenant)
	}

	// The profile's string table must carry the goroutine labels. A
	// 250ms window over a loaded 2-core runner can still miss every
	// labeled sample, so retry with forced captures under sustained
	// load rather than flaking.
	if !profileMentions(t, forced.Path, "tiny") {
		found := false
		for try := 0; try < 8 && !found; try++ {
			e, err := srv.profiles.CaptureCPU(profring.ReasonForced, "tiny", "")
			if err == profring.ErrBusy {
				time.Sleep(100 * time.Millisecond)
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			found = profileMentions(t, e.Path, "tiny")
		}
		if !found {
			t.Fatal("no CPU profile sample carried the tenant=tiny goroutine label")
		}
	}

	// The ops report, rendered from the live debug endpoints plus the
	// profile ring, must point straight at the decode stage.
	d, err := opsreport.Fetch(ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	d.Profiles = srv.profiles.Entries()
	var buf bytes.Buffer
	if err := opsreport.Render(&buf, d); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "dominant stage: decode") {
		t.Fatalf("ops report does not name decode dominant:\n%s", out)
	}
	if !strings.Contains(out, "tenant tiny: fast_burn") {
		t.Fatalf("ops report does not show the burn:\n%s", out)
	}
	if !strings.Contains(out, "cpu/slo_burn") {
		t.Fatalf("ops report does not list the forced capture:\n%s", out)
	}
}

// profileMentions reports whether the gzipped pprof proto at path has
// s in its string table (label keys and values are stored verbatim).
func profileMentions(t *testing.T, path, s string) bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Contains(raw, []byte(s))
}
