package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The flight recorder is the quality black box of the pipeline: it
// watches every block record for error-bound slack violations and
// compression-ratio outliers against a rolling baseline, and when one
// trips it dumps the recent trace ring plus the offending block's data
// to a JSON artifact that can be replayed offline through
// internal/zcheck (cmd/zcheck -flight). Detection is O(1) per block
// (a Welford update and two comparisons); artifact writes happen only
// on anomalies and are bounded by MaxArtifacts, so a pathological
// workload cannot turn the recorder into a disk-filling loop.

// Anomaly reasons, used as artifact labels, counter keys and the
// Prometheus reason label.
const (
	ReasonEBViolation        = "eb_violation"
	ReasonRatioOutlier       = "ratio_outlier"
	ReasonDecodeRatioOutlier = "decode_ratio_outlier"
)

var flightReasons = []string{ReasonEBViolation, ReasonRatioOutlier, ReasonDecodeRatioOutlier}

// FlightConfig parameterizes a FlightRecorder. The zero value of every
// field is replaced by the documented default.
type FlightConfig struct {
	// Dir is the directory artifacts are written into; "" disables
	// artifact writes (anomalies are still counted).
	Dir string
	// ErrorBound is recorded in artifacts so a replay can re-verify the
	// bound without the original stream header.
	ErrorBound float64
	// SlackFloor triggers an eb_violation anomaly when a block's
	// EBSlack falls below it. The default 0 fires only on genuine
	// violations (negative slack); operations can raise it to page on
	// quality erosion before the bound actually breaks, and tests use
	// it to inject violations on demand.
	SlackFloor float64
	// RatioSigma is the outlier threshold in baseline standard
	// deviations (default 4).
	RatioSigma float64
	// Warmup is the number of blocks folded into the rolling baseline
	// before outlier detection arms (default 64).
	Warmup int
	// MaxArtifacts bounds artifact files written over the recorder's
	// lifetime (default 8).
	MaxArtifacts int
}

func (c FlightConfig) withDefaults() FlightConfig {
	if c.RatioSigma <= 0 {
		c.RatioSigma = 4
	}
	if c.Warmup <= 0 {
		c.Warmup = 64
	}
	if c.MaxArtifacts <= 0 {
		c.MaxArtifacts = 8
	}
	return c
}

// rollingStats is Welford's online mean/variance accumulator.
type rollingStats struct {
	n    int
	mean float64
	m2   float64
}

func (r *rollingStats) add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

func (r *rollingStats) stddev() float64 {
	if r.n < 2 {
		return 0
	}
	return math.Sqrt(r.m2 / float64(r.n-1))
}

// outlier reports whether x deviates from the rolling baseline by more
// than sigma standard deviations. The deviation scale is floored at 2%
// of the mean so a perfectly uniform warmup (stddev ~ 0) does not turn
// every later block into an outlier.
func (r *rollingStats) outlier(x, sigma float64, warmup int) bool {
	if r.n < warmup {
		return false
	}
	scale := r.stddev()
	if floor := 0.02 * math.Abs(r.mean); scale < floor {
		scale = floor
	}
	if scale <= 0 {
		return false
	}
	return math.Abs(x-r.mean) > sigma*scale
}

// A FlightRecorder watches a Collector's block stream for quality
// anomalies and captures bounded JSON artifacts. Attach one with
// Collector.AttachFlight; all methods are safe for concurrent use by
// any number of pipeline workers.
type FlightRecorder struct {
	cfg FlightConfig

	mu        sync.Mutex
	comp      rollingStats // per-block compression ratio (bytes_in / bytes_out)
	dec       rollingStats // per-block decode expansion ratio (raw / compressed)
	anomalies map[string]uint64
	artifacts []string
	writeErr  error
}

// NewFlightRecorder returns a recorder with cfg's zero fields replaced
// by defaults.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	return &FlightRecorder{
		cfg:       cfg.withDefaults(),
		anomalies: make(map[string]uint64, len(flightReasons)),
	}
}

// Config returns the effective (default-filled) configuration.
func (fr *FlightRecorder) Config() FlightConfig { return fr.cfg }

// AnomalyCounts returns a copy of the per-reason anomaly counters.
func (fr *FlightRecorder) AnomalyCounts() map[string]uint64 {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	out := make(map[string]uint64, len(fr.anomalies))
	for k, v := range fr.anomalies {
		out[k] = v
	}
	return out
}

// ArtifactPaths returns the artifact files written so far, in write
// order.
func (fr *FlightRecorder) ArtifactPaths() []string {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return append([]string(nil), fr.artifacts...)
}

// Err returns the first artifact-write error, if any. Detection keeps
// running after a failed write; the error is surfaced here instead of
// interrupting the pipeline.
func (fr *FlightRecorder) Err() error {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.writeErr
}

// observeCompress checks one compressed-block record. Anomalous blocks
// are counted and captured but not folded into the rolling baseline,
// so one bad block does not drag the baseline toward it.
func (fr *FlightRecorder) observeCompress(c *Collector, rec TraceRecord, original, reconstructed []float64) {
	ratio := 0.0
	if rec.BytesOut > 0 {
		ratio = float64(rec.BytesIn) / float64(rec.BytesOut)
	}
	fr.mu.Lock()
	reason := ""
	switch {
	case rec.EBSlack < fr.cfg.SlackFloor:
		reason = ReasonEBViolation
	case fr.comp.outlier(ratio, fr.cfg.RatioSigma, fr.cfg.Warmup):
		reason = ReasonRatioOutlier
	default:
		fr.comp.add(ratio)
		fr.mu.Unlock()
		return
	}
	fr.anomalies[reason]++
	baseline := fr.comp
	fr.writeArtifactLocked(&FlightArtifact{
		Reason:        reason,
		UnixNanos:     time.Now().UnixNano(), //lint:detlint-ok artifact timestamp is telemetry metadata, never encoder input
		ErrorBound:    fr.cfg.ErrorBound,
		Record:        rec,
		BaselineMean:  baseline.mean,
		BaselineStd:   baseline.stddev(),
		BaselineN:     baseline.n,
		Traces:        c.ring.snapshot(),
		Original:      append([]float64(nil), original...),      //lint:hotalloc2-ok anomaly path bounded by MaxArtifacts; the artifact must own a copy
		Reconstructed: append([]float64(nil), reconstructed...), //lint:hotalloc2-ok anomaly path bounded by MaxArtifacts; the artifact must own a copy
	})
	fr.mu.Unlock()
}

// observeDecode checks one decoded block's expansion ratio against the
// decode-side baseline.
func (fr *FlightRecorder) observeDecode(c *Collector, compressedBytes, rawBytes int) {
	if compressedBytes <= 0 || rawBytes <= 0 {
		return
	}
	ratio := float64(rawBytes) / float64(compressedBytes)
	fr.mu.Lock()
	if !fr.dec.outlier(ratio, fr.cfg.RatioSigma, fr.cfg.Warmup) {
		fr.dec.add(ratio)
		fr.mu.Unlock()
		return
	}
	fr.anomalies[ReasonDecodeRatioOutlier]++
	baseline := fr.dec
	fr.writeArtifactLocked(&FlightArtifact{
		Reason:       ReasonDecodeRatioOutlier,
		UnixNanos:    time.Now().UnixNano(),
		ErrorBound:   fr.cfg.ErrorBound,
		Record:       TraceRecord{BytesIn: rawBytes, BytesOut: compressedBytes},
		BaselineMean: baseline.mean,
		BaselineStd:  baseline.stddev(),
		BaselineN:    baseline.n,
		Traces:       c.ring.snapshot(),
	})
	fr.mu.Unlock()
}

// writeArtifactLocked serializes a to a fresh file under cfg.Dir; the
// caller holds fr.mu, which also serializes the sequence numbering.
// Failures are recorded, not raised: the recorder must never take down
// the pipeline it observes. Anomalies are rare and bounded by
// MaxArtifacts, so file I/O under the lock is acceptable.
func (fr *FlightRecorder) writeArtifactLocked(a *FlightArtifact) {
	if fr.cfg.Dir == "" || len(fr.artifacts) >= fr.cfg.MaxArtifacts {
		return
	}
	path := filepath.Join(fr.cfg.Dir, fmt.Sprintf("flight-%04d-%s.json", len(fr.artifacts), a.Reason)) //lint:hotalloc2-ok anomaly path bounded by MaxArtifacts
	//lint:hotalloc2-ok anomaly path bounded by MaxArtifacts
	err := func() error {
		if err := os.MkdirAll(fr.cfg.Dir, 0o755); err != nil {
			return err
		}
		b, err := json.MarshalIndent(a, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(b, '\n'), 0o644) //lint:hotalloc2-ok anomaly path: trailing newline on a fresh JSON buffer
	}()
	if err != nil {
		if fr.writeErr == nil {
			fr.writeErr = err
		}
		return
	}
	fr.artifacts = append(fr.artifacts, path)
}

// A FlightArtifact is one captured anomaly: the offending block's
// trace record (including its ECQ summary), the trace-ring context
// leading up to it, the rolling baseline at detection time, and — for
// compress-side anomalies — the block's original and reconstructed
// values so the incident replays offline through internal/zcheck.
type FlightArtifact struct {
	Reason       string        `json:"reason"`
	UnixNanos    int64         `json:"unix_nanos"`
	ErrorBound   float64       `json:"error_bound,omitempty"`
	Record       TraceRecord   `json:"record"`
	BaselineMean float64       `json:"baseline_ratio_mean"`
	BaselineStd  float64       `json:"baseline_ratio_stddev"`
	BaselineN    int           `json:"baseline_blocks"`
	Traces       []TraceRecord `json:"traces,omitempty"`
	// Original and Reconstructed are the offending block's values; a
	// zcheck replay of the pair re-derives the violation independently
	// of the live run.
	Original      []float64 `json:"original,omitempty"`
	Reconstructed []float64 `json:"reconstructed,omitempty"`
}

// ReadFlightArtifact loads an artifact written by the recorder.
func ReadFlightArtifact(path string) (*FlightArtifact, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a FlightArtifact
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, fmt.Errorf("telemetry: flight artifact %s: %w", path, err)
	}
	return &a, nil
}

// sortedReasons returns the known anomaly reasons in stable order plus
// any unknown keys present in m — the Prometheus exporter needs a
// deterministic label order.
func sortedReasons(m map[string]uint64) []string {
	out := append([]string(nil), flightReasons...)
	seen := map[string]bool{}
	for _, r := range out {
		seen[r] = true
	}
	var extra []string
	for k := range m {
		if !seen[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}
