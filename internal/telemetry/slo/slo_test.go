package slo

import (
	"bufio"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry/tsdb"
)

// fixture builds a ring plus a "now" sample where tenant "tiny" serves
// every read slow and tenant "ok" serves everything fast. Timestamps
// are synthetic so evaluations are fully deterministic.
func fixture(t *testing.T) (*Engine, tsdb.Sample, *tsdb.Ring) {
	t.Helper()
	e := New(Config{
		FastWindow: 5 * time.Minute,
		SlowWindow: time.Hour,
	})
	ring := tsdb.NewRing(32)
	base := time.Unix(1000, 0)
	set := func(s tsdb.Sample, tenant string, reads, slow float64) {
		s.Set(tsdb.ForTenant(tenant, tsdb.KeyReadsTotal), reads)
		s.Set(tsdb.ForTenant(tenant, tsdb.KeyReadSlowTotal), slow)
		s.Set(tsdb.ForTenant(tenant, tsdb.KeyRequestsTotal), reads)
	}
	old := tsdb.NewSample(base)
	set(old, "tiny", 100, 100)
	set(old, "ok", 100, 0)
	ring.Add(old)

	now := tsdb.NewSample(base.Add(2 * time.Minute))
	set(now, "tiny", 300, 300) // 200 more reads, all slow
	set(now, "ok", 300, 0)
	return e, now, ring
}

func TestEvaluateFastBurn(t *testing.T) {
	e, now, ring := fixture(t)
	rep := e.Evaluate(now, ring, map[string]Quantiles{"tiny": {ReadP99MS: 80}})
	if rep.WorstState != StateFastBurn {
		t.Fatalf("WorstState = %q, want fast_burn", rep.WorstState)
	}

	st, ok := rep.Find("tiny", ReadLatency)
	if !ok {
		t.Fatal("tiny read_latency missing")
	}
	// 100% bad over a 1% budget = burn rate 100 on both windows (the
	// ring is younger than both windows, so both clamp to its span).
	if math.Abs(st.FastBurn-100) > 1e-9 || math.Abs(st.SlowBurn-100) > 1e-9 {
		t.Fatalf("burn = %v/%v, want 100/100", st.FastBurn, st.SlowBurn)
	}
	if st.State != StateFastBurn {
		t.Fatalf("state = %q, want fast_burn", st.State)
	}
	if st.FastBad != 200 || st.FastGood != 0 {
		t.Fatalf("fast events = good %v bad %v, want 0/200", st.FastGood, st.FastBad)
	}
	if st.LifetimeBad != 300 {
		t.Fatalf("lifetime bad = %v, want 300", st.LifetimeBad)
	}
	if rep.Tenants["tiny"].Latency.ReadP99MS != 80 {
		t.Fatalf("quantiles not threaded: %+v", rep.Tenants["tiny"].Latency)
	}

	if got := rep.Tenants["ok"].State; got != StateOK {
		t.Fatalf("healthy tenant state = %q", got)
	}
	if st, _ := rep.Find("ok", ReadLatency); st.FastBurn != 0 {
		t.Fatalf("healthy tenant burn = %v", st.FastBurn)
	}
}

// A spike confined to the fast window must not alarm when the slow
// window is clean — that is the point of requiring both windows.
func TestEvaluateNeedsBothWindows(t *testing.T) {
	e := New(Config{FastWindow: time.Minute, SlowWindow: time.Hour})
	ring := tsdb.NewRing(32)
	base := time.Unix(10000, 0)

	set := func(s tsdb.Sample, reads, slow float64) {
		s.Set(tsdb.ForTenant("a", tsdb.KeyReadsTotal), reads)
		s.Set(tsdb.ForTenant("a", tsdb.KeyReadSlowTotal), slow)
	}
	// An hour of clean traffic, then a 30-second 100%-slow spike. The
	// sample at -2m anchors the fast window after the clean bulk.
	old := tsdb.NewSample(base.Add(-time.Hour))
	set(old, 0, 0)
	ring.Add(old)
	mid := tsdb.NewSample(base.Add(-2 * time.Minute))
	set(mid, 100000, 0)
	ring.Add(mid)
	now := tsdb.NewSample(base)
	set(now, 100100, 100)

	rep := e.Evaluate(now, ring, nil)
	st, _ := rep.Find("a", ReadLatency)
	if st.FastBurn < e.Config().FastBurnThreshold {
		t.Fatalf("fast burn = %v, expected above threshold", st.FastBurn)
	}
	if st.SlowBurn >= e.Config().SlowBurnThreshold {
		t.Fatalf("slow burn = %v, expected below threshold", st.SlowBurn)
	}
	if st.State != StateOK {
		t.Fatalf("state = %q, want ok (slow window clean)", st.State)
	}
}

func TestEvaluateIdleTenantIsOK(t *testing.T) {
	e := New(Config{Tenants: map[string]TenantObjectives{"ghost": {}}})
	rep := e.Evaluate(tsdb.NewSample(time.Unix(5, 0)), nil, nil)
	if rep.Tenants["ghost"].State != StateOK {
		t.Fatalf("idle tenant state = %q", rep.Tenants["ghost"].State)
	}
	for _, st := range rep.Tenants["ghost"].Objectives {
		if st.FastBurn != 0 || st.SlowBurn != 0 {
			t.Fatalf("idle burn %+v", st)
		}
	}
}

func TestNilEngine(t *testing.T) {
	var e *Engine
	if rep := e.Evaluate(tsdb.Sample{}, nil, nil); rep != nil {
		t.Fatal("nil engine returned a report")
	}
	if o := e.ObjectivesFor("x"); o != (TenantObjectives{}) {
		t.Fatalf("nil engine objectives = %+v", o)
	}
	if err := WritePrometheus(nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaults(t *testing.T) {
	e := New(Config{Tenants: map[string]TenantObjectives{
		"custom": {ReadP99MS: 5, ErrorObjective: 0.9},
	}})
	cfg := e.Config()
	if cfg.FastWindow != 5*time.Minute || cfg.SlowWindow != time.Hour {
		t.Fatalf("windows = %v/%v", cfg.FastWindow, cfg.SlowWindow)
	}
	if cfg.FastBurnThreshold != 14.4 || cfg.SlowBurnThreshold != 6 {
		t.Fatalf("thresholds = %v/%v", cfg.FastBurnThreshold, cfg.SlowBurnThreshold)
	}
	o := e.ObjectivesFor("custom")
	if o.ReadP99MS != 5 || o.ErrorObjective != 0.9 {
		t.Fatalf("override lost: %+v", o)
	}
	if o.UploadP99MS != DefaultUploadP99MS || o.LatencyObjective != DefaultLatencyObjective {
		t.Fatalf("defaults not merged: %+v", o)
	}
	if d := e.ObjectivesFor("unknown"); d.ErrorObjective != DefaultErrorObjective || d.ReadP99MS != DefaultReadP99MS {
		t.Fatalf("unknown tenant objectives = %+v", d)
	}
}

func TestStateOrdering(t *testing.T) {
	if StateOK.Value() != 0 || StateSlowBurn.Value() != 1 || StateFastBurn.Value() != 2 {
		t.Fatal("state values drifted; dashboards depend on 0/1/2")
	}
	if worse(StateSlowBurn, StateFastBurn) != StateFastBurn || worse(StateSlowBurn, StateOK) != StateSlowBurn {
		t.Fatal("worse() broken")
	}
}

// promLine is the subset grammar of the exposition format the slo
// families use: metric{k="v",...} value
var promLine = regexp.MustCompile(`^(pastrid_slo_[a-z_]+)\{([^}]*)\} (\S+)$`)

// TestWritePrometheusParses runs the rendered families through a mini
// parser: headers pair with their family, every sample line matches
// the grammar, label keys are from the known set, and the series we
// computed above are present with the right values.
func TestWritePrometheusParses(t *testing.T) {
	e, now, ring := fixture(t)
	rep := e.Evaluate(now, ring, nil)

	var sb strings.Builder
	if err := WritePrometheus(&sb, rep); err != nil {
		t.Fatal(err)
	}

	series := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	var lastType string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("bad TYPE line: %q", line)
			}
			lastType = parts[2]
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable sample line: %q", line)
		}
		if !strings.HasPrefix(m[1], lastType) {
			t.Fatalf("sample %q outside its family block (last TYPE %q)", m[1], lastType)
		}
		for _, lv := range strings.Split(m[2], ",") {
			k, _, ok := strings.Cut(lv, "=")
			if !ok {
				t.Fatalf("bad label %q in %q", lv, line)
			}
			switch k {
			case "tenant", "objective", "window", "outcome":
			default:
				t.Fatalf("unknown label key %q in %q", k, line)
			}
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		series[m[1]+"{"+m[2]+"}"] = v
	}

	wants := map[string]float64{
		`pastrid_slo_state{tenant="tiny",objective="read_latency"}`:                      2,
		`pastrid_slo_state{tenant="ok",objective="read_latency"}`:                        0,
		`pastrid_slo_burn_rate{tenant="tiny",objective="read_latency",window="fast"}`:    100,
		`pastrid_slo_events_total{tenant="tiny",objective="read_latency",outcome="bad"}`: 300,
		`pastrid_slo_events_total{tenant="ok",objective="read_latency",outcome="good"}`:  300,
	}
	for k, want := range wants {
		got, ok := series[k]
		if !ok {
			t.Fatalf("missing series %s\nall: %v", k, sb.String())
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s = %v, want %v", k, got, want)
		}
	}
}
