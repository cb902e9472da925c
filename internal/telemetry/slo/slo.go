// Package slo evaluates per-tenant service-level objectives as
// multi-window burn rates, Google SRE style. The engine is pure: it
// reads the embedded metrics history (internal/telemetry/tsdb) plus a
// fresh "now" sample and returns a Report — no clocks, no goroutines,
// no I/O — so evaluations are deterministic under test and cheap
// enough to run on every /debug/slo request.
//
// Burn rate is the ratio between the bad-event fraction observed over
// a window and the error budget the objective leaves (1 - target). A
// burn rate of 1 means the budget is being consumed exactly at the
// sustainable pace; 14.4 means a 30-day budget dies in 2 days. An
// objective alarms only when BOTH the fast and the slow window exceed
// a threshold: the fast window makes detection quick, the slow window
// keeps a brief spike from paging, and requiring both is what makes
// the alert reset promptly once the condition clears.
package slo

import (
	"io"
	"sort"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/tsdb"
)

// Objective names one SLO dimension. Constants only, so the namespace
// stays centrally defined and greppable.
type Objective string

const (
	// ReadLatency is "fraction of block reads faster than the tenant's
	// read threshold ≥ latency target".
	ReadLatency Objective = "read_latency"
	// UploadLatency is the same for stream uploads.
	UploadLatency Objective = "upload_latency"
	// ErrorRate is "fraction of requests that do not 5xx ≥ error target".
	ErrorRate Objective = "error_rate"
)

// Objectives lists every dimension in report order.
func Objectives() []Objective {
	return []Objective{ReadLatency, UploadLatency, ErrorRate}
}

// State is an objective's burn verdict.
type State string

const (
	StateOK       State = "ok"
	StateSlowBurn State = "slow_burn"
	StateFastBurn State = "fast_burn"
)

// Value maps a state onto the pastrid_slo_state gauge (0/1/2) so
// dashboards can max() over tenants.
func (s State) Value() float64 {
	switch s {
	case StateFastBurn:
		return 2
	case StateSlowBurn:
		return 1
	default:
		return 0
	}
}

// worse returns the more severe of two states.
func worse(a, b State) State {
	if b.Value() > a.Value() {
		return b
	}
	return a
}

// MetricName names a pastrid_slo_* Prometheus family. Typed for the
// same reason as Objective: the namespace stays in constants.
type MetricName string

const (
	MetricState       MetricName = "pastrid_slo_state"
	MetricBurnRate    MetricName = "pastrid_slo_burn_rate"
	MetricEventsTotal MetricName = "pastrid_slo_events_total"
)

// TenantObjectives are one tenant's targets. Latency thresholds are
// enforced at record time (the server counts a read/upload as "slow"
// when it exceeds the threshold); the engine only consumes the
// resulting good/bad counters.
type TenantObjectives struct {
	// ReadP99MS / UploadP99MS are the latency thresholds in
	// milliseconds a request must beat to count as good.
	ReadP99MS   float64 `json:"read_p99_ms"`
	UploadP99MS float64 `json:"upload_p99_ms"`
	// LatencyObjective / ErrorObjective are the target good fractions,
	// e.g. 0.99 = 1% error budget.
	LatencyObjective float64 `json:"latency_objective"`
	ErrorObjective   float64 `json:"error_objective"`
}

// Default objective values, applied field-wise wherever a tenant's
// override leaves a field zero.
const (
	DefaultReadP99MS        = 50
	DefaultUploadP99MS      = 1000
	DefaultLatencyObjective = 0.99
	DefaultErrorObjective   = 0.999
)

func (o TenantObjectives) withDefaults(d TenantObjectives) TenantObjectives {
	if o.ReadP99MS == 0 {
		o.ReadP99MS = d.ReadP99MS
	}
	if o.UploadP99MS == 0 {
		o.UploadP99MS = d.UploadP99MS
	}
	if o.LatencyObjective == 0 {
		o.LatencyObjective = d.LatencyObjective
	}
	if o.ErrorObjective == 0 {
		o.ErrorObjective = d.ErrorObjective
	}
	return o
}

// Config parameterizes an Engine. Zero values take the documented
// defaults, so Config{} is the stock 5m/1h 14.4/6 Google-SRE setup.
type Config struct {
	FastWindow        time.Duration // default 5m
	SlowWindow        time.Duration // default 1h
	FastBurnThreshold float64       // default 14.4 (2-day budget exhaustion)
	SlowBurnThreshold float64       // default 6
	Default           TenantObjectives
	Tenants           map[string]TenantObjectives // per-tenant overrides
}

func (c Config) withDefaults() Config {
	if c.FastWindow <= 0 {
		c.FastWindow = 5 * time.Minute
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = time.Hour
	}
	if c.FastBurnThreshold <= 0 {
		c.FastBurnThreshold = 14.4
	}
	if c.SlowBurnThreshold <= 0 {
		c.SlowBurnThreshold = 6
	}
	c.Default = c.Default.withDefaults(TenantObjectives{
		ReadP99MS:        DefaultReadP99MS,
		UploadP99MS:      DefaultUploadP99MS,
		LatencyObjective: DefaultLatencyObjective,
		ErrorObjective:   DefaultErrorObjective,
	})
	return c
}

// Quantiles are a tenant's measured latency quantiles, read by the
// server off its latency histograms and passed through into the report
// for operators.
type Quantiles struct {
	ReadP50MS   float64 `json:"read_p50_ms"`
	ReadP99MS   float64 `json:"read_p99_ms"`
	UploadP50MS float64 `json:"upload_p50_ms"`
	UploadP99MS float64 `json:"upload_p99_ms"`
}

// ObjectiveStatus is one objective's evaluation for one tenant.
type ObjectiveStatus struct {
	Objective Objective `json:"objective"`
	// Target is the good fraction promised; ThresholdMS is set for
	// latency objectives only.
	Target      float64 `json:"target"`
	ThresholdMS float64 `json:"threshold_ms,omitempty"`
	// FastBurn / SlowBurn are the burn rates over the two windows;
	// FastGood / FastBad are the event counts behind the fast number.
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	FastGood float64 `json:"fast_good"`
	FastBad  float64 `json:"fast_bad"`
	// LifetimeGood / LifetimeBad back the pastrid_slo_events_total
	// counters.
	LifetimeGood float64 `json:"lifetime_good"`
	LifetimeBad  float64 `json:"lifetime_bad"`
	State        State   `json:"state"`
}

// TenantReport is one tenant's full SLO evaluation.
type TenantReport struct {
	State      State             `json:"state"`
	Latency    Quantiles         `json:"latency"`
	Objectives []ObjectiveStatus `json:"objectives"`
}

// Report is the /debug/slo payload.
type Report struct {
	GeneratedUnixNano int64                   `json:"generated_unix_nano"`
	FastWindowMS      int64                   `json:"fast_window_ms"`
	SlowWindowMS      int64                   `json:"slow_window_ms"`
	WorstState        State                   `json:"worst_state"`
	Tenants           map[string]TenantReport `json:"tenants"`
}

// TenantNames returns the report's tenants in sorted order.
func (r *Report) TenantNames() []string {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.Tenants))
	for t := range r.Tenants {
		names = append(names, t)
	}
	sort.Strings(names)
	return names
}

// Find returns one tenant's status for one objective.
func (r *Report) Find(tenant string, o Objective) (ObjectiveStatus, bool) {
	if r == nil {
		return ObjectiveStatus{}, false
	}
	for _, os := range r.Tenants[tenant].Objectives {
		if os.Objective == o {
			return os, true
		}
	}
	return ObjectiveStatus{}, false
}

// Engine evaluates SLOs against history samples. The nil *Engine is a
// valid disabled engine: Evaluate returns nil.
type Engine struct {
	cfg Config
}

// New builds an engine with defaults applied.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg.withDefaults()}
}

// Config returns the engine's resolved configuration.
func (e *Engine) Config() Config {
	if e == nil {
		return Config{}
	}
	return e.cfg
}

// ObjectivesFor resolves one tenant's objectives (override merged over
// the default).
func (e *Engine) ObjectivesFor(tenant string) TenantObjectives {
	if e == nil {
		return TenantObjectives{}
	}
	if o, ok := e.cfg.Tenants[tenant]; ok {
		return o.withDefaults(e.cfg.Default)
	}
	return e.cfg.Default
}

// objectiveKeys maps an objective onto its total/bad counter series
// and target for one tenant.
func objectiveKeys(o Objective, obj TenantObjectives) (total, bad tsdb.Key, target, thresholdMS float64) {
	switch o {
	case ReadLatency:
		return tsdb.KeyReadsTotal, tsdb.KeyReadSlowTotal, obj.LatencyObjective, obj.ReadP99MS
	case UploadLatency:
		return tsdb.KeyUploadsTotal, tsdb.KeyUploadSlowTotal, obj.LatencyObjective, obj.UploadP99MS
	default: // ErrorRate
		return tsdb.KeyRequestsTotal, tsdb.KeyErrorsTotal, obj.ErrorObjective, 0
	}
}

// burnRate turns window event deltas into a burn rate. No traffic in
// the window means no burn — an idle tenant is not violating anything.
func burnRate(good, bad, target float64) float64 {
	total := good + bad
	if total <= 0 {
		return 0
	}
	budget := 1 - target
	if budget <= 0 {
		budget = 1e-9 // a 100% objective: any bad event is a huge burn
	}
	return (bad / total) / budget
}

// Evaluate runs every tenant × objective against the history ring.
// now is a freshly captured sample (it need not be in the ring); lat
// carries measured quantiles per tenant for the report. Tenants are
// the union of configured tenants and tenants present in now's keys.
// When the ring is younger than a window, the window clamps to the
// ring's span (delta against the oldest sample); with no history at
// all, lifetime totals serve as the window.
func (e *Engine) Evaluate(now tsdb.Sample, ring *tsdb.Ring, lat map[string]Quantiles) *Report {
	if e == nil {
		return nil
	}
	rep := &Report{
		GeneratedUnixNano: now.UnixNano,
		FastWindowMS:      e.cfg.FastWindow.Milliseconds(),
		SlowWindowMS:      e.cfg.SlowWindow.Milliseconds(),
		WorstState:        StateOK,
		Tenants:           make(map[string]TenantReport),
	}

	tenants := make(map[string]bool, len(e.cfg.Tenants))
	for t := range e.cfg.Tenants {
		tenants[t] = true
	}
	for k := range now.Values {
		if t, _, ok := tsdb.SplitTenant(k); ok {
			tenants[t] = true
		}
	}

	fastOld, _ := ring.Before(now.UnixNano - e.cfg.FastWindow.Nanoseconds())
	slowOld, _ := ring.Before(now.UnixNano - e.cfg.SlowWindow.Nanoseconds())

	for t := range tenants {
		obj := e.ObjectivesFor(t)
		tr := TenantReport{State: StateOK, Latency: lat[t]}
		for _, o := range Objectives() {
			totalKey, badKey, target, thresholdMS := objectiveKeys(o, obj)
			totalKey, badKey = tsdb.ForTenant(t, totalKey), tsdb.ForTenant(t, badKey)

			fastBad := tsdb.Delta(now, fastOld, badKey)
			fastGood := tsdb.Delta(now, fastOld, totalKey) - fastBad
			slowBad := tsdb.Delta(now, slowOld, badKey)
			slowGood := tsdb.Delta(now, slowOld, totalKey) - slowBad
			if fastGood < 0 {
				fastGood = 0
			}
			if slowGood < 0 {
				slowGood = 0
			}

			st := ObjectiveStatus{
				Objective:    o,
				Target:       target,
				ThresholdMS:  thresholdMS,
				FastBurn:     burnRate(fastGood, fastBad, target),
				SlowBurn:     burnRate(slowGood, slowBad, target),
				FastGood:     fastGood,
				FastBad:      fastBad,
				LifetimeBad:  now.Get(badKey),
				LifetimeGood: now.Get(totalKey) - now.Get(badKey),
				State:        StateOK,
			}
			if st.LifetimeGood < 0 {
				st.LifetimeGood = 0
			}
			switch {
			case st.FastBurn >= e.cfg.FastBurnThreshold && st.SlowBurn >= e.cfg.FastBurnThreshold:
				st.State = StateFastBurn
			case st.FastBurn >= e.cfg.SlowBurnThreshold && st.SlowBurn >= e.cfg.SlowBurnThreshold:
				st.State = StateSlowBurn
			}
			tr.State = worse(tr.State, st.State)
			tr.Objectives = append(tr.Objectives, st)
		}
		rep.WorstState = worse(rep.WorstState, tr.State)
		rep.Tenants[t] = tr
	}
	return rep
}

// WritePrometheus renders a report as the pastrid_slo_* families, in
// sorted tenant order so scrapes are deterministic. A nil report
// writes nothing, keeping /metrics valid before the first evaluation.
func WritePrometheus(w io.Writer, rep *Report) error {
	if rep == nil {
		return nil
	}
	p := telemetry.NewPromWriter(w)
	names := rep.TenantNames()

	p.Header(string(MetricState), "SLO burn state per tenant objective (0=ok 1=slow_burn 2=fast_burn).", "gauge")
	for _, t := range names {
		for _, os := range rep.Tenants[t].Objectives {
			p.Sample(string(MetricState), os.State.Value(), "tenant", t, "objective", string(os.Objective))
		}
	}
	p.Header(string(MetricBurnRate), "Error-budget burn rate per tenant objective and window.", "gauge")
	for _, t := range names {
		for _, os := range rep.Tenants[t].Objectives {
			p.Sample(string(MetricBurnRate), os.FastBurn, "tenant", t, "objective", string(os.Objective), "window", "fast")
			p.Sample(string(MetricBurnRate), os.SlowBurn, "tenant", t, "objective", string(os.Objective), "window", "slow")
		}
	}
	p.Header(string(MetricEventsTotal), "Lifetime SLO events per tenant objective and outcome.", "counter")
	for _, t := range names {
		for _, os := range rep.Tenants[t].Objectives {
			p.Sample(string(MetricEventsTotal), os.LifetimeGood, "tenant", t, "objective", string(os.Objective), "outcome", "good")
			p.Sample(string(MetricEventsTotal), os.LifetimeBad, "tenant", t, "objective", string(os.Objective), "outcome", "bad")
		}
	}
	return p.Err()
}
