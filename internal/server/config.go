package server

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/store"
	"repro/internal/telemetry/profring"
	"repro/internal/telemetry/slo"
	"repro/internal/telemetry/trace"
)

// TenantConfig holds one tenant's service parameters. Tenants are the
// unit of isolation: each gets its own compression error bound, store
// quota, cache sub-cap and telemetry collector.
type TenantConfig struct {
	// ErrorBound overrides the server default absolute error bound for
	// this tenant's uploads; zero inherits the default.
	ErrorBound float64 `json:"error_bound"`
	// QuotaBytes caps the tenant's committed store bytes (segments +
	// indexes); zero means unlimited.
	QuotaBytes int64 `json:"quota_bytes"`
	// CacheBytes sub-caps the tenant's share of the decoded-block cache;
	// zero means only the global cap applies.
	CacheBytes int64 `json:"cache_bytes"`
	// SLO overrides the daemon-wide SLO objectives for this tenant;
	// zero fields inherit the slo section's defaults.
	SLO TenantSLOConfig `json:"slo"`
}

// TenantSLOConfig is one tenant's SLO objective overrides. It mirrors
// slo.TenantObjectives: latency thresholds in milliseconds and target
// good fractions per objective.
type TenantSLOConfig struct {
	ReadP99MS        float64 `json:"read_p99_ms"`
	UploadP99MS      float64 `json:"upload_p99_ms"`
	LatencyObjective float64 `json:"latency_objective"`
	ErrorObjective   float64 `json:"error_objective"`
}

// SLOConfig tunes the SLO burn-rate engine and the embedded metrics
// history ring behind /debug/slo and /debug/history. The objectives are
// the ones pastrid measures itself: read and upload latency and the 5xx
// error rate. Evaluation is always available on demand; the sampler
// that feeds the history ring (and force-captures profiles on fast
// burn) runs only when sample_interval_ms >= 0.
type SLOConfig struct {
	// SampleIntervalMS is the history sampler period; 0 means 15000,
	// negative disables the background sampler (on-demand /debug/slo
	// evaluation then sees lifetime totals only).
	SampleIntervalMS int `json:"sample_interval_ms"`
	// FastWindowMS / SlowWindowMS are the burn-rate windows
	// (0 = 5m / 1h). An objective alarms only when BOTH windows burn.
	FastWindowMS int `json:"fast_window_ms"`
	SlowWindowMS int `json:"slow_window_ms"`
	// FastBurn / SlowBurn are the burn-rate alarm thresholds
	// (0 = 14.4 / 6, the Google SRE multiwindow defaults).
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	// HistoryDepth bounds the metrics history ring (0 = 512 samples).
	HistoryDepth int `json:"history_depth"`
	// Default objectives for tenants without overrides; zero fields
	// take the engine defaults (50ms read, 1s upload, 0.99 latency,
	// 0.999 error).
	Default TenantSLOConfig `json:"default"`
}

// ProfileConfig tunes the continuous-profiling ring. An empty dir
// disables profiling.
type ProfileConfig struct {
	// Dir is the on-disk profile ring directory.
	Dir string `json:"dir"`
	// PeriodMS is the periodic capture interval (0 = 60000).
	PeriodMS int `json:"period_ms"`
	// CPUSampleMS is each CPU capture's sampling window (0 = 1000).
	CPUSampleMS int `json:"cpu_sample_ms"`
	// MaxProfiles bounds the ring (0 = 64 profile files).
	MaxProfiles int `json:"max_profiles"`
}

// TraceConfig tunes request tracing (internal/telemetry/trace): every
// request on a traced route records spans, and tail retention alone
// decides which finished traces enter the bounded export ring served
// by GET /debug/traces.
type TraceConfig struct {
	// KeepFraction is the probability in [0, 1] that an unremarkable
	// finished trace (no error, not in its route's slowest 1%) is
	// retained anyway, for baseline coverage.
	KeepFraction float64 `json:"keep_fraction"`
	// RingDepth bounds the retained-trace export ring (0 = 256).
	RingDepth int `json:"ring_depth"`
	// MaxSpansPerTrace caps recorded spans per trace (0 = 512); spans
	// past the cap are counted as dropped.
	MaxSpansPerTrace int `json:"max_spans_per_trace"`
}

// Config is pastrid's service configuration, loaded from a JSON file.
// Only tenants listed here may use the service — requests with an
// unknown X-Pastri-Tenant are rejected.
type Config struct {
	// Listen is the HTTP listen address.
	Listen string `json:"listen"`
	// StoreDir is the block store root directory.
	StoreDir string `json:"store_dir"`
	// Shards is the store's shard-directory count (0 = store default).
	Shards int `json:"shards"`
	// CacheBytes is the global decoded-block cache capacity.
	CacheBytes int64 `json:"cache_bytes"`
	// Workers sizes the compression worker pool per upload (0 =
	// GOMAXPROCS).
	Workers int `json:"workers"`
	// NumSB and SBSize fix the block geometry every stored stream uses.
	NumSB  int `json:"num_sb"`
	SBSize int `json:"sb_size"`
	// DefaultErrorBound applies to tenants without their own bound.
	DefaultErrorBound float64 `json:"default_error_bound"`
	// Tenants is the closed set of tenants the daemon serves.
	Tenants map[string]TenantConfig `json:"tenants"`
	// Trace tunes request tracing and tail sampling.
	Trace TraceConfig `json:"trace"`
	// SLO tunes the burn-rate engine and metrics history ring.
	SLO SLOConfig `json:"slo"`
	// Profile tunes the continuous-profiling ring (disabled unless
	// profile.dir is set).
	Profile ProfileConfig `json:"profile"`
}

// DefaultConfig returns the baked-in defaults: the paper's 4×9 ERI
// geometry at the GAMESS 1e-10 bound, a 64 MiB cache, no tenants (the
// config file must name at least one), and tracing that records every
// request but retains only outliers: errors, requests in their route's
// slowest 1% so far, and a 1% random baseline.
func DefaultConfig() Config {
	return Config{
		Listen:            "127.0.0.1:9641",
		CacheBytes:        64 << 20,
		NumSB:             4,
		SBSize:            9,
		DefaultErrorBound: 1e-10,
		Trace:             TraceConfig{KeepFraction: 0.01},
	}
}

// LoadConfig reads and validates a JSON config file, filling unset
// fields from DefaultConfig.
func LoadConfig(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, fmt.Errorf("server: opening config: %w", err)
	}
	defer f.Close() //lint:errdrop-ok read-only file; close errors cannot lose data
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	cfg := DefaultConfig()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("server: parsing config %s: %w", path, err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Validate checks the configuration for use by New.
func (c Config) Validate() error {
	if c.Listen == "" {
		return fmt.Errorf("server: config: listen address is empty")
	}
	if c.StoreDir == "" {
		return fmt.Errorf("server: config: store_dir is empty")
	}
	if c.NumSB <= 0 || c.SBSize <= 0 {
		return fmt.Errorf("server: config: invalid block geometry %d×%d", c.NumSB, c.SBSize)
	}
	if c.DefaultErrorBound <= 0 {
		return fmt.Errorf("server: config: default_error_bound must be positive")
	}
	if c.Workers < 0 {
		return fmt.Errorf("server: config: negative workers")
	}
	if len(c.Tenants) == 0 {
		return fmt.Errorf("server: config: at least one tenant is required")
	}
	for name, tc := range c.Tenants {
		if !store.ValidName(name) {
			return fmt.Errorf("server: config: invalid tenant name %q", name)
		}
		if tc.ErrorBound < 0 {
			return fmt.Errorf("server: config: tenant %q: negative error_bound", name)
		}
		if tc.QuotaBytes < 0 {
			return fmt.Errorf("server: config: tenant %q: negative quota_bytes", name)
		}
		if tc.CacheBytes < 0 {
			return fmt.Errorf("server: config: tenant %q: negative cache_bytes", name)
		}
	}
	if c.Trace.KeepFraction < 0 || c.Trace.KeepFraction > 1 {
		return fmt.Errorf("server: config: trace.keep_fraction %g outside [0, 1]", c.Trace.KeepFraction)
	}
	if c.Trace.RingDepth < 0 {
		return fmt.Errorf("server: config: negative trace.ring_depth")
	}
	if c.Trace.MaxSpansPerTrace < 0 {
		return fmt.Errorf("server: config: negative trace.max_spans_per_trace")
	}
	if c.SLO.FastWindowMS < 0 || c.SLO.SlowWindowMS < 0 {
		return fmt.Errorf("server: config: negative slo window")
	}
	if c.SLO.FastBurn < 0 || c.SLO.SlowBurn < 0 {
		return fmt.Errorf("server: config: negative slo burn threshold")
	}
	if c.SLO.HistoryDepth < 0 {
		return fmt.Errorf("server: config: negative slo.history_depth")
	}
	if c.Profile.PeriodMS < 0 || c.Profile.CPUSampleMS < 0 || c.Profile.MaxProfiles < 0 {
		return fmt.Errorf("server: config: negative profile setting")
	}
	return nil
}

// sampleInterval resolves the history sampler period: 0 means the
// 15 s default, negative disables the sampler.
func (c Config) sampleInterval() time.Duration {
	switch {
	case c.SLO.SampleIntervalMS < 0:
		return 0
	case c.SLO.SampleIntervalMS == 0:
		return 15 * time.Second
	default:
		return time.Duration(c.SLO.SampleIntervalMS) * time.Millisecond
	}
}

// sloObjectives lowers a JSON objective section into the engine's
// shape.
func sloObjectives(t TenantSLOConfig) slo.TenantObjectives {
	return slo.TenantObjectives{
		ReadP99MS:        t.ReadP99MS,
		UploadP99MS:      t.UploadP99MS,
		LatencyObjective: t.LatencyObjective,
		ErrorObjective:   t.ErrorObjective,
	}
}

// sloEngineConfig lowers the JSON slo section into the engine Config.
func (c Config) sloEngineConfig() slo.Config {
	overrides := make(map[string]slo.TenantObjectives, len(c.Tenants))
	for t, tc := range c.Tenants {
		overrides[t] = sloObjectives(tc.SLO)
	}
	return slo.Config{
		FastWindow:        time.Duration(c.SLO.FastWindowMS) * time.Millisecond,
		SlowWindow:        time.Duration(c.SLO.SlowWindowMS) * time.Millisecond,
		FastBurnThreshold: c.SLO.FastBurn,
		SlowBurnThreshold: c.SLO.SlowBurn,
		Default:           sloObjectives(c.SLO.Default),
		Tenants:           overrides,
	}
}

// profileConfig lowers the JSON profile section into profring's Config.
func (c Config) profileConfig() profring.Config {
	return profring.Config{
		Dir:         c.Profile.Dir,
		MaxProfiles: c.Profile.MaxProfiles,
		CPUDuration: time.Duration(c.Profile.CPUSampleMS) * time.Millisecond,
		Period:      time.Duration(c.Profile.PeriodMS) * time.Millisecond,
	}
}

// traceConfig lowers the JSON trace section into the tracer's Config.
func (c Config) traceConfig() trace.Config {
	return trace.Config{
		KeepFraction: c.Trace.KeepFraction,
		RingDepth:    c.Trace.RingDepth,
		MaxSpans:     c.Trace.MaxSpansPerTrace,
	}
}

// errorBound returns the effective bound for a tenant.
func (c Config) errorBound(tenant string) float64 {
	if tc, ok := c.Tenants[tenant]; ok && tc.ErrorBound > 0 {
		return tc.ErrorBound
	}
	return c.DefaultErrorBound
}

// tenantNames returns the configured tenants in sorted order, for
// deterministic metrics and logs.
func (c Config) tenantNames() []string {
	names := make([]string, 0, len(c.Tenants))
	for t := range c.Tenants {
		names = append(names, t)
	}
	sort.Strings(names)
	return names
}

// storeQuotas extracts the per-tenant store quota map.
func (c Config) storeQuotas() map[string]int64 {
	q := make(map[string]int64, len(c.Tenants))
	for t, tc := range c.Tenants {
		if tc.QuotaBytes > 0 {
			q[t] = tc.QuotaBytes
		}
	}
	return q
}

// cacheCaps extracts the per-tenant cache sub-cap map.
func (c Config) cacheCaps() map[string]int64 {
	q := make(map[string]int64, len(c.Tenants))
	for t, tc := range c.Tenants {
		if tc.CacheBytes > 0 {
			q[t] = tc.CacheBytes
		}
	}
	return q
}
