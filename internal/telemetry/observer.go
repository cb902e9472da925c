package telemetry

import (
	"context"
	"log/slog"
	"runtime/pprof"
	"time"

	"repro/internal/telemetry/trace"
)

// Observer is the pipeline's one observability side channel: the tenant
// collector, the structured logger, the request span and the pprof
// label context, carried together so every instrumentation site makes
// one call. All four are runtime-only state, never serialized into
// streams. The zero Observer observes nothing at the cost of a nil
// check per site: it reads no clock and allocates nothing.
type Observer struct {
	// Collector, when non-nil, receives per-stage timings, byte
	// accounting and per-block trace records. It may be shared across
	// workers and sections.
	Collector *Collector
	// Logger, when non-nil, receives structured pipeline logs: run
	// summaries at Info, per-block records (block id, quartet class,
	// eb slack, encoding) at Debug. Per-block Debug logging requires a
	// handler whose level actually enables Debug — the encoder checks
	// it once per reset (DebugEnabled), not per block or attribute.
	Logger *slog.Logger
	// Trace, when non-nil and recording, is the parent span under which
	// every timed stage also lands as a finished child span named after
	// the stage (block_split, pattern_fit, quantize, encode,
	// sequencer_wait, write, decode). Spans are safe for concurrent
	// children, so it may be shared across workers.
	Trace *trace.Span
	// ProfileCtx, when non-nil, is the context whose pprof goroutine
	// labels (pastrid sets tenant and route) the pipeline's goroutines
	// run under, with a "stage" label added per pipeline role (Do) — so
	// CPU profiles attribute samples to tenant × route × stage.
	ProfileCtx context.Context
}

// A StageTimer times one interval of a pipeline stage; End records it.
// The zero StageTimer, which a zero Observer hands out, records
// nothing.
type StageTimer struct {
	c     *Collector
	sp    *trace.Span // nil unless the parent span is recording
	s     Stage
	start time.Time
}

// Stage starts timing stage s. End the result on every exit path —
// defer it, or call it before each return — which the spanend lint
// check enforces. When neither the collector nor a recording span is
// attached the clock is not read.
func (o *Observer) Stage(s Stage) StageTimer {
	sp := o.Trace
	if !sp.Recording() {
		sp = nil
	}
	if o.Collector == nil && sp == nil {
		return StageTimer{}
	}
	return StageTimer{c: o.Collector, sp: sp, s: s, start: time.Now()} //lint:detlint-ok telemetry only: stage durations are exported, never steer encoding
}

// End reads the clock once and records the interval since Stage in
// both views: the collector's stage histogram and, when the span was
// recording, a finished child span named s.String(). The two views of
// one interval therefore agree to the nanosecond.
func (t StageTimer) End() {
	if t.c == nil && t.sp == nil {
		return
	}
	d := time.Since(t.start) //lint:detlint-ok telemetry only: stage durations are exported, never steer encoding
	if t.c != nil {
		t.c.stages[t.s].observe(d)
	}
	t.sp.RecordChild(t.s.String(), t.start, d)
}

// Do runs f under ProfileCtx's pprof label set plus a "stage" label, so
// CPU samples taken inside f carry tenant/route and the pipeline role.
// With no profile context attached — every CLI and library path — f
// runs directly: no label map copy, no overhead.
func (o *Observer) Do(stage string, f func()) {
	if o.ProfileCtx == nil {
		f()
		return
	}
	pprof.Do(o.ProfileCtx, pprof.Labels("stage", stage), func(context.Context) { f() }) //lint:hotalloc2-ok one closure per labeled region (per worker/stream), not per block
}

// Info logs a run summary at Info level; a nil Logger drops it. The
// attributes are built before the call, so a site whose attributes cost
// anything to build checks Logger first.
func (o *Observer) Info(msg string, attrs ...slog.Attr) {
	if o.Logger != nil {
		o.Logger.LogAttrs(context.Background(), slog.LevelInfo, msg, attrs...)
	}
}

// DebugEnabled reports whether the Logger would emit Debug records —
// the per-block log gate, which the encoder caches once per reset so a
// block pays one boolean test instead of an interface call.
func (o *Observer) DebugEnabled() bool {
	return o.Logger != nil && o.Logger.Enabled(context.Background(), slog.LevelDebug)
}
