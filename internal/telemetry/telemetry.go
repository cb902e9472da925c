// Package telemetry is a dependency-free observability layer for the
// PaSTRI compression pipeline: lock-free atomic counters, log-linear
// histograms, per-stage wall-clock timers, and a bounded
// per-block trace ring buffer, aggregated by a Collector and exported
// as JSON snapshots or an expvar variable. The pipeline reaches the
// collector through an Observer (observer.go), which also carries the
// logger, the request span and the pprof label context, and times each
// stage once for both the collector and the span.
//
// Everything is nil-safe: every Collector method begins with a nil
// check and returns immediately, so a disabled pipeline pays only a
// pointer test and an untaken branch per instrumentation point — no
// clock reads, no allocations, no atomic traffic. Code under
// instrumentation therefore threads a possibly-nil *Collector without
// guarding call sites.
//
// All mutation paths are either atomic (counters, histograms, stage
// accumulators) or mutex-protected with a copy-in critical section
// (the trace ring), so any number of compression workers may record
// into one Collector concurrently. Counters and histograms are exact,
// not sampled: after a pipeline drains, their values are independent
// of the worker count and schedule. A Snapshot taken while workers are
// still recording is weakly consistent — each field is individually
// coherent but fields may reflect slightly different instants.
package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one instrumented phase of the pipeline.
type Stage uint8

// The instrumented pipeline stages. Compression records the first six;
// StageDecode is recorded by the decompression paths.
const (
	// StageBlockSplit covers carving the input into block jobs: the
	// copy+submit of the stream writer's WriteBlock and geometry
	// grouping in the container writer.
	StageBlockSplit Stage = iota
	// StagePatternFit is the pattern-scaling analysis (Sec. IV-A).
	StagePatternFit
	// StageQuantize is pattern/scale quantization plus the
	// error-correction pass (Sec. IV-B).
	StageQuantize
	// StageEncode is the bit emission: header fields, PQ/SQ, and the
	// prefix-tree (or sparse) ECQ encoding (Sec. IV-C).
	StageEncode
	// StageSequencerWait is time the in-order sequencer spends blocked
	// waiting for the next result from the worker pool.
	StageSequencerWait
	// StageWrite is time spent writing framing and payloads to the
	// underlying writer, and assembling one-shot streams.
	StageWrite
	// StageDecode is per-block decompression.
	StageDecode

	numStages
)

var stageNames = [numStages]string{
	"block_split",
	"pattern_fit",
	"quantize",
	"encode",
	"sequencer_wait",
	"write",
	"decode",
}

// String returns the snake_case stage name used in snapshots.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage?"
}

// A Counter is a lock-free monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// histSubBits is the histogram's k: values below 2^k get one bucket
// each, and every power of two from 2^k up is split into 2^k equal
// sub-buckets, so no bucket is wider than 2^-k (6.25%) of its lower
// bound.
const histSubBits = 4

// numHistBuckets covers all of uint64: 2^k single-value buckets, then
// 2^k sub-buckets for each of the 64-k powers of two from 2^k to 2^63.
const numHistBuckets = (64 - histSubBits + 1) << histSubBits

// A Histogram counts observations in log-linear buckets with bounded
// relative error, in the manner of DDSketch (Masson et al., VLDB 2019):
// with k = 4, values 0..15 get one bucket each and every power of two
// [2^e, 2^(e+1)) with e ≥ 4 is split into 16 sub-buckets of width
// 2^(e-4), so a bucket's width is at most 2^-4 = 6.25% of its lower
// bound. 976 buckets cover all of uint64 (7.8 KB). Observation is
// lock-free and exact (no sampling); Quantile and InSlowest1Pct read
// the live buckets.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [numHistBuckets]atomic.Uint64
}

// bucketOf returns the index of the bucket holding v.
func bucketOf(v uint64) int {
	if v < 1<<histSubBits {
		return int(v)
	}
	shift := bits.Len64(v) - 1 - histSubBits
	// v>>shift keeps v's top k+1 bits: 2^k plus the sub-bucket index.
	return shift<<histSubBits + int(v>>(shift&63))
}

// bucketMax returns the largest value bucket i holds.
func bucketMax(i int) uint64 {
	if i < 1<<histSubBits {
		return uint64(i)
	}
	shift := i>>histSubBits - 1
	top := uint64(i - shift<<histSubBits) // 2^k + sub-bucket index
	// For the last bucket (top+1)<<shift wraps to 0, and the result is
	// MaxUint64.
	return (top+1)<<(shift&63) - 1
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Quantile returns the largest value of the bucket holding rank
// ⌈q·n⌉ of the n observations, so it is never below the exact
// quantile and at most 2^-k above it. q is clamped to [0, 1]; an
// empty histogram returns 0.
func (h *Histogram) Quantile(q float64) uint64 {
	// n is summed from the buckets rather than loaded from count, so the
	// scan below, which only ever sees counts as high, reaches rank.
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(min(max(q, 0), 1) * float64(n)))
	rank = min(max(rank, 1), n)
	var cum uint64
	for i := range h.buckets {
		if cum += h.buckets[i].Load(); cum >= rank {
			return bucketMax(i)
		}
	}
	return math.MaxUint64
}

// InSlowest1Pct reports whether v ranks in the slowest 1% of the values
// observed so far: fewer than 1 in 100 of them lie in a higher bucket
// than v's. A value above every earlier one, the first observation
// included, always does.
func (h *Histogram) InSlowest1Pct(v uint64) bool {
	n := h.count.Load()
	var above uint64
	for i := bucketOf(v) + 1; i < numHistBuckets; i++ {
		if above += h.buckets[i].Load(); above > 0 && above*100 >= n {
			return false
		}
	}
	return true
}

// stageRec accumulates one stage's timings. min is stored as ns+1 so
// the zero value means "no observations yet".
type stageRec struct {
	count atomic.Uint64
	total atomic.Uint64 // nanoseconds
	min   atomic.Uint64 // nanoseconds + 1; 0 = unset
	max   atomic.Uint64 // nanoseconds
	hist  Histogram     // nanoseconds
}

func (r *stageRec) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	ns := uint64(d)
	r.count.Add(1)
	r.total.Add(ns)
	r.hist.Observe(ns)
	for {
		cur := r.min.Load()
		if cur != 0 && cur <= ns+1 {
			break
		}
		if r.min.CompareAndSwap(cur, ns+1) {
			break
		}
	}
	for {
		cur := r.max.Load()
		if cur >= ns {
			break
		}
		if r.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// BlockEncoding names the ECQ representation a block ended up with.
type BlockEncoding uint8

// The three per-block outcomes: Type-0 blocks spend no ECQ bits at
// all; other blocks choose dense tree coding or the sparse
// (index,value) representation by exact cost (Sec. IV-C).
const (
	EncType0 BlockEncoding = iota
	EncDense
	EncSparse

	numBlockEncodings
)

var encodingNames = [numBlockEncodings]string{"type0", "dense", "sparse"}

// String returns the snapshot name of the encoding.
func (e BlockEncoding) String() string {
	if int(e) < len(encodingNames) {
		return encodingNames[e]
	}
	return "enc?"
}

// MarshalText renders the encoding as its name in JSON snapshots.
func (e BlockEncoding) MarshalText() ([]byte, error) { return []byte(e.String()), nil }

// UnmarshalText parses an encoding name, so snapshots round-trip
// through JSON (e.g. when scraped back from /debug/vars).
func (e *BlockEncoding) UnmarshalText(text []byte) error {
	for i, name := range encodingNames {
		if name == string(text) {
			*e = BlockEncoding(i)
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown block encoding %q", text)
}

// DefaultTraceDepth is the trace ring size used when New is given a
// zero depth.
const DefaultTraceDepth = 256

// A Collector aggregates pipeline telemetry. The nil *Collector is a
// valid, zero-cost no-op sink; construct a live one with New. One
// Collector may be shared by any number of concurrent workers.
type Collector struct {
	stages       [numStages]stageRec
	blocks       Counter // compressed blocks (trace ids draw from this)
	bytesIn      Counter // raw bytes entering compressed blocks
	bytesPayload Counter // compressed block payload bytes
	bytesFraming Counter // stream/container framing bytes (headers, varints, directories)
	enc          [numBlockEncodings]Counter
	blockBytes   Histogram // compressed payload size per block

	blocksDecoded   Counter
	decodedBytesIn  Counter // compressed bytes consumed by decode
	decodedBytesOut Counter // raw bytes produced by decode

	// ebViolations counts blocks whose decoded values broke the absolute
	// error bound — incremented by audit passes (cmd/pastri -audit) and
	// surfaced on /metrics, so a nonzero value is an operator page.
	ebViolations Counter

	ring traceRing

	// flight, when set, receives every block record (plus block data,
	// when the instrumentation point can supply it) for anomaly
	// detection. Stored atomically so workers may record while an
	// operator attaches the recorder.
	flight atomic.Pointer[FlightRecorder]
}

// New returns a live Collector whose trace ring holds traceDepth
// records (0 ⇒ DefaultTraceDepth, negative ⇒ tracing disabled).
func New(traceDepth int) *Collector {
	c := &Collector{}
	switch {
	case traceDepth == 0:
		traceDepth = DefaultTraceDepth
	case traceDepth < 0:
		traceDepth = 0
	}
	if traceDepth > 0 {
		c.ring.recs = make([]TraceRecord, traceDepth)
	}
	return c
}

// RecordBlock accounts one compressed block: counters, the payload
// size histogram, and a slot in the trace ring. The record's Block id
// is assigned here, in completion order (the stream's block order is
// the submission order, which may differ under parallel compression).
// It returns the assigned id (0 on a nil collector).
//
// original and reconstructed are the block's raw and reconstructed
// values, handed to an attached FlightRecorder for anomaly capture.
// They are only read during the call — never retained — so callers may
// pass reusable scratch buffers. Either may be nil.
func (c *Collector) RecordBlock(rec TraceRecord, original, reconstructed []float64) uint64 {
	if c == nil {
		return 0
	}
	rec.Block = c.blocks.v.Add(1) - 1
	c.bytesIn.Add(uint64(rec.BytesIn))
	c.bytesPayload.Add(uint64(rec.BytesOut))
	if int(rec.Encoding) < len(c.enc) {
		c.enc[rec.Encoding].Add(1)
	}
	c.blockBytes.Observe(uint64(rec.BytesOut))
	c.ring.push(rec)
	if fr := c.flight.Load(); fr != nil {
		fr.observeCompress(c, rec, original, reconstructed)
	}
	return rec.Block
}

// AttachFlight points the collector's block stream at a flight
// recorder. Safe to call while workers are recording; a nil collector
// or recorder is a no-op.
func (c *Collector) AttachFlight(fr *FlightRecorder) {
	if c == nil || fr == nil {
		return
	}
	c.flight.Store(fr)
}

// Flight returns the attached flight recorder, or nil.
func (c *Collector) Flight() *FlightRecorder {
	if c == nil {
		return nil
	}
	return c.flight.Load()
}

// FlightWantsData reports whether an attached flight recorder would
// capture block data — the hook instrumentation uses to decide whether
// computing a reconstruction copy is worth the extra pass.
func (c *Collector) FlightWantsData() bool {
	return c.Flight() != nil
}

// AddEBViolations counts n audited blocks that broke the absolute
// error bound.
func (c *Collector) AddEBViolations(n int) {
	if c == nil || n <= 0 {
		return
	}
	c.ebViolations.Add(uint64(n))
}

// EBViolations returns the audited bound-violation count.
func (c *Collector) EBViolations() uint64 {
	if c == nil {
		return 0
	}
	return c.ebViolations.Load()
}

// AddFramingBytes accounts stream or container framing (headers,
// varint lengths, directories) so payload + framing bytes sum to the
// produced output size exactly.
func (c *Collector) AddFramingBytes(n int) {
	if c == nil || n <= 0 {
		return
	}
	c.bytesFraming.Add(uint64(n))
}

// RecordDecodedBlock accounts one decompressed block.
func (c *Collector) RecordDecodedBlock(compressedBytes, rawBytes int) {
	if c == nil {
		return
	}
	c.blocksDecoded.Add(1)
	if compressedBytes > 0 {
		c.decodedBytesIn.Add(uint64(compressedBytes))
	}
	if rawBytes > 0 {
		c.decodedBytesOut.Add(uint64(rawBytes))
	}
	if fr := c.flight.Load(); fr != nil {
		fr.observeDecode(c, compressedBytes, rawBytes)
	}
}

// TraceRecord is one block's entry in the trace ring buffer.
type TraceRecord struct {
	// Block is the collector-assigned id, in completion order.
	Block uint64 `json:"block"`
	// SubBlocks is the block's sub-block count (NumSB).
	SubBlocks int `json:"sub_blocks"`
	// ExpSpan is the spread of binary exponents across the block's
	// nonzero values — a proxy for how hard the block is to pattern-fit.
	ExpSpan int `json:"exp_span"`
	// Encoding is the chosen ECQ representation.
	Encoding BlockEncoding `json:"encoding"`
	// BytesIn and BytesOut are the raw and compressed payload sizes.
	BytesIn  int `json:"bytes_in"`
	BytesOut int `json:"bytes_out"`
	// EBSlack is the error bound minus the block's actual worst-case
	// reconstruction error — how much of the user's bound the codec
	// left on the table.
	EBSlack float64 `json:"eb_slack"`
	// ECQNonZero is the number of nonzero error-correction quanta — the
	// block's "hardness" for the ECQ stage (a Type-0 block has zero).
	ECQNonZero int `json:"ecq_nonzero"`
	// ECbMax is the widest ECQ bin the block needed (1 ⇒ Type-0).
	ECbMax int `json:"ecb_max"`
}

// traceRing is a bounded ring of the most recent block traces. Pushes
// are mutex-serialized (the critical section is one struct copy);
// a zero-length ring drops everything without taking the lock.
type traceRing struct {
	mu   sync.Mutex
	recs []TraceRecord
	next uint64
}

func (r *traceRing) push(rec TraceRecord) {
	if len(r.recs) == 0 {
		return
	}
	r.mu.Lock()
	r.recs[r.next%uint64(len(r.recs))] = rec
	r.next++
	r.mu.Unlock()
}

// snapshot returns the retained records, oldest first.
func (r *traceRing) snapshot() []TraceRecord {
	if len(r.recs) == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	depth := uint64(len(r.recs))
	count := n
	if count > depth {
		count = depth
	}
	out := make([]TraceRecord, 0, count) //lint:hotalloc2-ok anomaly path: snapshots are taken only when writing a flight artifact
	for i := n - count; i < n; i++ {
		out = append(out, r.recs[i%depth])
	}
	return out
}
