package opsreport

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry/profring"
	"repro/internal/telemetry/slo"
	"repro/internal/telemetry/tsdb"
)

var update = flag.Bool("update", false, "rewrite the report golden")

// fixtureDump builds a deterministic dump: a tenant burning its read
// objective, decode dominating the stage window, and a cache warming
// up.
func fixtureDump() Dump {
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	mk := func(offset time.Duration, hits, misses, decodeNS, encodeNS float64) tsdb.Sample {
		s := tsdb.NewSample(base.Add(offset))
		s.Set(tsdb.KeyCacheHitsTotal, hits)
		s.Set(tsdb.KeyCacheMissesTotal, misses)
		s.Set(tsdb.KeyCacheEvictionsTotal, misses/2)
		s.Set(tsdb.KeyCacheBytes, 4096)
		s.Set(tsdb.ForTenant("tiny", tsdb.StageNS("decode")), decodeNS)
		s.Set(tsdb.ForTenant("tiny", tsdb.StageNS("encode")), encodeNS)
		s.Set(tsdb.ForTenant("tiny", tsdb.KeyReadsTotal), hits+misses)
		return s
	}
	hist := tsdb.History{
		Depth: 16,
		Samples: []tsdb.Sample{
			mk(0, 10, 90, 1e6, 4e6),
			mk(15*time.Second, 200, 120, 61e6, 9e6),
			mk(30*time.Second, 700, 130, 121e6, 14e6),
		},
	}
	rep := &slo.Report{
		GeneratedUnixNano: base.Add(30 * time.Second).UnixNano(),
		FastWindowMS:      300000,
		SlowWindowMS:      3600000,
		WorstState:        slo.StateFastBurn,
		Tenants: map[string]slo.TenantReport{
			"tiny": {
				State:   slo.StateFastBurn,
				Latency: slo.Quantiles{ReadP50MS: 0.4, ReadP99MS: 9.5, UploadP50MS: 3, UploadP99MS: 40},
				Objectives: []slo.ObjectiveStatus{
					{Objective: slo.ReadLatency, Target: 0.99, ThresholdMS: 50,
						FastBurn: 100, SlowBurn: 100, FastGood: 0, FastBad: 830,
						LifetimeGood: 0, LifetimeBad: 830, State: slo.StateFastBurn},
					{Objective: slo.ErrorRate, Target: 0.999,
						LifetimeGood: 960, State: slo.StateOK},
				},
			},
		},
	}
	return Dump{
		SLO:     rep,
		History: hist,
		Profiles: []profring.Entry{
			{Seq: 3, Kind: profring.KindCPU, Reason: profring.ReasonSLOBurn, Tenant: "tiny",
				TraceID:  "4bf92f3577b34da6a3ce929d0e0e4736",
				UnixNano: base.Add(20 * time.Second).UnixNano(), SizeBytes: 2048},
			{Seq: 4, Kind: profring.KindHeap, Reason: profring.ReasonPeriodic,
				UnixNano: base.Add(25 * time.Second).UnixNano(), SizeBytes: 512},
		},
	}
}

func TestRenderGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := Render(&buf, fixtureDump()); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/report.golden"
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Fatalf("report drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestRenderNamesDominantStage pins the headline attribution: decode
// grew 120ms against encode's 10ms, so decode must be named dominant.
func TestRenderNamesDominantStage(t *testing.T) {
	var buf bytes.Buffer
	if err := Render(&buf, fixtureDump()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "dominant stage: decode") {
		t.Fatalf("report does not name decode dominant:\n%s", out)
	}
	if !strings.Contains(out, "tenant tiny: fast_burn") {
		t.Fatalf("report does not show the burning tenant:\n%s", out)
	}
}

func TestRenderEmptyDump(t *testing.T) {
	var buf bytes.Buffer
	if err := Render(&buf, Dump{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"no SLO evaluation", "insufficient history", "no samples"} {
		if !strings.Contains(out, want) {
			t.Fatalf("empty-dump report missing %q:\n%s", want, out)
		}
	}
}

func TestDumpRoundTripAndFetch(t *testing.T) {
	d := fixtureDump()
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SLO.WorstState != d.SLO.WorstState || len(got.History.Samples) != len(d.History.Samples) ||
		len(got.Profiles) != len(d.Profiles) {
		t.Fatalf("round trip lost data: %+v", got)
	}

	// Fetch against a fake daemon serving the two debug endpoints.
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/slo", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(d.SLO)
	})
	mux.HandleFunc("/debug/history", func(w http.ResponseWriter, r *http.Request) {
		d.History.WriteJSON(w)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	fetched, err := Fetch(ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if fetched.SLO == nil || fetched.SLO.WorstState != slo.StateFastBurn {
		t.Fatalf("fetched SLO = %+v", fetched.SLO)
	}
	if len(fetched.History.Samples) != 3 {
		t.Fatalf("fetched %d history samples, want 3", len(fetched.History.Samples))
	}
}
