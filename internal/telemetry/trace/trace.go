// Package trace implements request-scoped distributed tracing for the
// pastrid service: spans from the HTTP edge down to the PaSTRI encode
// kernel, W3C traceparent propagation, tail-based retention, and a
// bounded ring of finished traces exported as Chrome trace-event JSON.
//
// Design rules, mirroring the telemetry.Collector contract:
//
//   - A nil *Tracer and a nil *Span are fully usable: every method
//     nil-checks its receiver first and returns immediately, so
//     uninstrumented paths pay one predictable branch and zero
//     allocations. This is proven by TestNilSpanAllocs and
//     BenchmarkNilSpan, and gated transitively by the PR 4 kernel
//     bench gate (core threads spans through the same hot paths).
//   - Stdlib only. No clocks besides time.Now/Since (annotated for
//     detlint where reachable from the deterministic pipeline), no
//     math/rand: IDs and the random keep use a splitmix64 generator
//     seeded from crypto/rand (or Config.Seed for deterministic tests).
//   - A root span reads no clock: StartRequest takes the caller's start
//     and FinishRequest its elapsed time, so the root's duration is the
//     interval the caller logs and puts in its latency histograms.
//   - Spans of one trace share a single mutex-guarded slice; workers
//     from the parallel pipeline may start/end children concurrently.
//
// Every request records spans; there is no head sampling. Tail
// retention alone decides, at FinishRequest, which finished traces
// enter the export ring: errors, traces the caller marks slow (pastrid
// marks a request in its route's slowest 1% so far), and a
// Config.KeepFraction random residue for baseline coverage.
package trace

import (
	"crypto/rand"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"
)

// Default capacities, applied by New when the Config field is zero.
const (
	DefaultRingDepth = 256 // finished traces retained for export
	DefaultMaxSpans  = 512 // spans recorded per trace before dropping
)

// Keep reasons attached to retained traces and used as the label set
// of the pastrid_traces_retained_total metric, in order of precedence.
const (
	ReasonError   = "error"
	ReasonLatency = "latency"
	ReasonRandom  = "random"
)

// KeepReasons lists every tail-retention reason in stable order.
var KeepReasons = [numReasons]string{ReasonError, ReasonLatency, ReasonRandom}

const numReasons = 3

// Config parameterizes a Tracer. The zero value is valid: keep errored
// and slow traces only, default ring depth and span cap.
type Config struct {
	// KeepFraction is the probability in [0, 1] that an otherwise
	// unremarkable finished trace is kept anyway, preserving baseline
	// (non-outlier) traces for comparison. 1.0 keeps everything —
	// used by the server tests to make retention deterministic.
	KeepFraction float64

	// RingDepth bounds the finished-trace export ring (default
	// DefaultRingDepth). Oldest retained traces are evicted first.
	RingDepth int

	// MaxSpans caps recorded spans per trace (default
	// DefaultMaxSpans); further StartChild calls count as dropped.
	MaxSpans int

	// Seed, when nonzero, seeds the ID and random-keep generator
	// deterministically. Zero seeds from crypto/rand.
	Seed uint64
}

// A Tracer records the spans of every request, applies tail retention
// and owns the bounded ring of finished traces. All methods are safe
// for concurrent use and safe on a nil receiver.
type Tracer struct {
	cfg Config
	rng atomic.Uint64 // splitmix64 state

	mu   sync.Mutex
	ring []*FinishedTrace // oldest first, len <= cfg.RingDepth

	tracesStarted  atomic.Uint64
	tracesFinished atomic.Uint64
	spansStarted   atomic.Uint64
	spansDropped   atomic.Uint64
	retained       [numReasons]atomic.Uint64 // indexed like KeepReasons
}

// New returns a Tracer for cfg, applying defaults for zero RingDepth
// and MaxSpans and seeding the ID generator.
func New(cfg Config) *Tracer {
	if cfg.RingDepth == 0 {
		cfg.RingDepth = DefaultRingDepth
	}
	if cfg.MaxSpans == 0 {
		cfg.MaxSpans = DefaultMaxSpans
	}
	t := &Tracer{cfg: cfg}
	seed := cfg.Seed
	if seed == 0 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err == nil {
			seed = binary.LittleEndian.Uint64(b[:])
		}
		seed |= 1 // never zero, even if crypto/rand failed
	}
	t.rng.Store(seed)
	return t
}

// Config returns the tracer's effective configuration (defaults
// applied). Zero value on a nil tracer.
func (t *Tracer) Config() Config {
	if t == nil {
		return Config{}
	}
	return t.cfg
}

// rand64 advances the splitmix64 generator. Lock-free; distinct
// callers may interleave but every value is drawn exactly once.
func (t *Tracer) rand64() uint64 {
	x := t.rng.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// rand01 returns a uniform float64 in [0, 1).
func (t *Tracer) rand01() float64 {
	return float64(t.rand64()>>11) / (1 << 53)
}

func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	binary.BigEndian.PutUint64(id[:8], t.rand64())
	binary.BigEndian.PutUint64(id[8:], t.rand64())
	if id.IsZero() {
		id[15] = 1
	}
	return id
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	binary.BigEndian.PutUint64(id[:], t.rand64())
	if id.IsZero() {
		id[7] = 1
	}
	return id
}

// StartRequest opens the recording root span of a request that began
// at start, the caller's own clock reading. The traceparent argument
// is the raw W3C header value from the incoming request ("" if
// absent): a valid header pins the trace ID and records the remote
// span as the root's parent, whatever its sampled flag says.
// Otherwise a fresh trace ID is drawn. On a nil tracer the result is
// nil.
func (t *Tracer) StartRequest(name, tenant, traceparent string, start time.Time) *Span {
	if t == nil {
		return nil
	}
	t.tracesStarted.Add(1)
	t.spansStarted.Add(1)
	s := &Span{tracer: t, root: true, start: start}
	if tid, psid, _, ok := ParseTraceparent(traceparent); ok {
		s.traceID = tid
		s.parentID = psid
	} else {
		s.traceID = t.newTraceID()
	}
	s.spanID = t.newSpanID()
	at := &activeTrace{tenant: tenant, maxSpans: t.cfg.MaxSpans}
	at.spans = make([]SpanData, 1, 16)
	at.spans[0] = SpanData{
		SpanID:      s.spanID.String(),
		ParentID:    s.parentID.String(),
		Name:        name,
		StartUnixNS: s.start.UnixNano(),
		DurationNS:  -1,
	}
	s.at = at
	return s
}

// FinishRequest ends the root span with the caller's elapsed time
// since the start it passed to StartRequest, applies the tail-retention
// rules and, when the trace is kept, snapshots it into the export ring.
// Retention keeps, in order of precedence, a trace with an error, a
// trace the caller marks slow, and a KeepFraction share of the rest.
// It reports whether the trace was retained and why ("" when not).
// Nil-safe; a second call on the same root is a no-op.
func (t *Tracer) FinishRequest(root *Span, elapsed time.Duration, slow bool) (retained bool, reason string) {
	if t == nil || root == nil || !root.root || root.at == nil {
		return false, ""
	}
	t.tracesFinished.Add(1)
	at := root.at
	root.at = nil
	at.mu.Lock()
	at.spans[0].DurationNS = elapsed.Nanoseconds()
	at.spans[0].Error = at.spans[0].Error || at.err
	var reasonIdx int // into KeepReasons
	switch {
	case at.err:
		reasonIdx = 0
	case slow:
		reasonIdx = 1
	case t.cfg.KeepFraction > 0 && t.rand01() < t.cfg.KeepFraction:
		reasonIdx = 2
	default:
		at.mu.Unlock()
		return false, ""
	}
	reason = KeepReasons[reasonIdx]
	ft := &FinishedTrace{
		TraceID:      root.traceID.String(),
		Name:         at.spans[0].Name,
		Tenant:       at.tenant,
		KeepReason:   reason,
		StartUnixNS:  at.spans[0].StartUnixNS,
		DurationNS:   at.spans[0].DurationNS,
		DroppedSpans: at.dropped,
		Spans:        at.spans,
	}
	at.mu.Unlock()
	t.retained[reasonIdx].Add(1)
	t.mu.Lock()
	if len(t.ring) >= t.cfg.RingDepth {
		copy(t.ring, t.ring[1:])
		t.ring[len(t.ring)-1] = ft
	} else {
		t.ring = append(t.ring, ft)
	}
	t.mu.Unlock()
	return true, reason
}

// Ring returns the retained traces, oldest first. The slice is a
// copy; the FinishedTrace values are shared and must not be mutated.
func (t *Tracer) Ring() []*FinishedTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*FinishedTrace, len(t.ring))
	copy(out, t.ring)
	return out
}

// Stats is a point-in-time snapshot of tracer activity counters.
// TracesSampled equals TracesStarted, since every request records
// spans; it stays so the Stats JSON shape, which the trace schema
// golden pins, is unchanged.
type Stats struct {
	TracesStarted    uint64            `json:"traces_started"`
	TracesSampled    uint64            `json:"traces_sampled"`
	TracesFinished   uint64            `json:"traces_finished"`
	TracesRetained   uint64            `json:"traces_retained"`
	SpansStarted     uint64            `json:"spans_started"`
	SpansDropped     uint64            `json:"spans_dropped"`
	RetainedByReason map[string]uint64 `json:"retained_by_reason"`
	RingTraces       int               `json:"ring_traces"`
}

// Stats snapshots the tracer counters. Zero value on a nil tracer.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{RetainedByReason: map[string]uint64{}}
	}
	started := t.tracesStarted.Load()
	s := Stats{
		TracesStarted:    started,
		TracesSampled:    started,
		TracesFinished:   t.tracesFinished.Load(),
		SpansStarted:     t.spansStarted.Load(),
		SpansDropped:     t.spansDropped.Load(),
		RetainedByReason: make(map[string]uint64, len(KeepReasons)),
	}
	for i, r := range KeepReasons {
		n := t.retained[i].Load()
		s.RetainedByReason[r] = n
		s.TracesRetained += n
	}
	t.mu.Lock()
	s.RingTraces = len(t.ring)
	t.mu.Unlock()
	return s
}

// An activeTrace accumulates the spans of one in-flight request.
// Shared by every span of the trace; the mutex makes
// concurrent StartChild/End from pipeline workers safe.
type activeTrace struct {
	tenant   string
	maxSpans int

	mu      sync.Mutex
	spans   []SpanData // index 0 is the root
	dropped int
	err     bool
}

// SpanData is the recorded form of one span, as serialized in
// FinishedTrace. DurationNS is -1 while the span is unfinished (a
// leaked span stays -1 in the export and is marked unfinished there).
type SpanData struct {
	SpanID      string `json:"span_id"`
	ParentID    string `json:"parent_id,omitempty"`
	Name        string `json:"name"`
	StartUnixNS int64  `json:"start_unix_ns"`
	DurationNS  int64  `json:"duration_ns"`
	Error       bool   `json:"error,omitempty"`
	Attrs       []Attr `json:"attrs,omitempty"`
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// A FinishedTrace is one retained trace in the export ring.
type FinishedTrace struct {
	TraceID      string     `json:"trace_id"`
	Name         string     `json:"name"`
	Tenant       string     `json:"tenant,omitempty"`
	KeepReason   string     `json:"keep_reason"`
	StartUnixNS  int64      `json:"start_unix_ns"`
	DurationNS   int64      `json:"duration_ns"`
	DroppedSpans int        `json:"dropped_spans,omitempty"`
	Spans        []SpanData `json:"spans"`
}

// A Span is one live timed operation within a trace. The zero of the
// API is nil: every method nil-checks the receiver, and StartChild on
// a nil or ended span returns nil, so instrumentation costs one branch
// when tracing is off. Spans are not reusable after End.
type Span struct {
	tracer   *Tracer
	at       *activeTrace // nil once ended
	traceID  TraceID
	spanID   SpanID
	parentID SpanID // remote parent for roots, local parent for children
	idx      int    // index of this span's SpanData in at.spans
	start    time.Time
	root     bool
}

// Recording reports whether the span is live and recording span data
// (not yet ended). False on nil, which is also what StartChild returns
// past the span cap.
func (s *Span) Recording() bool { return s != nil && s.at != nil }

// TraceID returns the 32-hex-digit trace ID, or "" on nil.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID.String()
}

// SpanID returns the 16-hex-digit span ID, or "" on nil.
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.spanID.String()
}

// Traceparent renders the W3C traceparent header value identifying
// this span. The sampled flag is always set, since every trace records.
// "" on nil.
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return FormatTraceparent(s.traceID, s.spanID, FlagSampled)
}

// StartChild opens a child span. On a nil or ended receiver it
// returns nil (zero further cost); when the trace has hit its span
// cap the child is counted as dropped and nil is returned.
func (s *Span) StartChild(name string) *Span {
	if s == nil || s.at == nil {
		return nil
	}
	at := s.at
	t := s.tracer
	// Recording-trace slow path: reached from hot kernels only when a span is recording; the nil-span fast path above allocates nothing
	child := &Span{
		tracer:   t,
		traceID:  s.traceID,
		spanID:   t.newSpanID(),
		parentID: s.spanID,
		start:    time.Now(),
	}
	at.mu.Lock()
	if len(at.spans) >= at.maxSpans {
		at.dropped++
		at.mu.Unlock()
		t.spansDropped.Add(1)
		return nil
	}
	child.at = at
	child.idx = len(at.spans)
	// Recording-trace slow path: span storage grows only while a trace is recording
	at.spans = append(at.spans, SpanData{
		SpanID:      child.spanID.String(),
		ParentID:    s.spanID.String(),
		Name:        name,
		StartUnixNS: child.start.UnixNano(),
		DurationNS:  -1,
	})
	at.mu.Unlock()
	t.spansStarted.Add(1)
	return child
}

// RecordChild records an already finished child span that started at
// start and lasted d, under the same span cap as StartChild. It is for
// callers that time an interval themselves (the pipeline's stage
// timers): one lock, and no live *Span is allocated. A nil or ended
// receiver records nothing.
func (s *Span) RecordChild(name string, start time.Time, d time.Duration) {
	if s == nil || s.at == nil {
		return
	}
	at := s.at
	t := s.tracer
	spanID := t.newSpanID()
	at.mu.Lock()
	if len(at.spans) >= at.maxSpans {
		at.dropped++
		at.mu.Unlock()
		t.spansDropped.Add(1)
		return
	}
	// Recording-trace slow path: span storage grows only while a trace is recording
	at.spans = append(at.spans, SpanData{
		SpanID:      spanID.String(),
		ParentID:    s.spanID.String(),
		Name:        name,
		StartUnixNS: start.UnixNano(),
		DurationNS:  d.Nanoseconds(),
	})
	at.mu.Unlock()
	t.spansStarted.Add(1)
}

// End finishes the span, recording its duration. Safe on nil; a
// second End is a no-op. Root spans are ended by
// Tracer.FinishRequest, not End.
func (s *Span) End() {
	if s == nil || s.at == nil || s.root {
		return
	}
	dur := time.Since(s.start)
	at := s.at
	s.at = nil
	at.mu.Lock()
	if at.spans[s.idx].DurationNS < 0 {
		at.spans[s.idx].DurationNS = dur.Nanoseconds()
	}
	at.mu.Unlock()
}

// Annotate attaches a key/value attribute to the span. No-op on nil
// or ended spans.
func (s *Span) Annotate(key, value string) {
	if s == nil || s.at == nil {
		return
	}
	at := s.at
	at.mu.Lock()
	// Recording-trace slow path: attributes accumulate only while a trace is recording
	at.spans[s.idx].Attrs = append(at.spans[s.idx].Attrs, Attr{Key: key, Value: value})
	at.mu.Unlock()
}

// AnnotateInt attaches an integer attribute to the span.
func (s *Span) AnnotateInt(key string, value int64) {
	if s == nil || s.at == nil {
		return
	}
	s.Annotate(key, itoa(value))
}

// SetError marks the span (and, transitively, its trace: tail
// retention always keeps errored traces) as failed. A nil err still
// marks the span. No-op on nil spans.
func (s *Span) SetError(err error) {
	if s == nil || s.at == nil {
		return
	}
	at := s.at
	at.mu.Lock()
	at.spans[s.idx].Error = true
	if err != nil {
		at.spans[s.idx].Attrs = append(at.spans[s.idx].Attrs, Attr{Key: "error_detail", Value: err.Error()})
	}
	at.err = true
	at.mu.Unlock()
}

// itoa is a minimal strconv.FormatInt(v, 10) without the strconv
// import weight on the hot path signature.
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := v < 0
	u := uint64(v)
	if neg {
		u = uint64(-v)
	}
	for u > 0 {
		i--
		buf[i] = byte('0' + u%10)
		u /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
