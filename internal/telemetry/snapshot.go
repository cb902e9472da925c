package telemetry

import (
	"encoding/json"
	"expvar"
)

// Snapshots are pull-based: the Collector's hot paths only bump
// atomics, and a Snapshot call materializes a consistent-enough view
// on demand. See DESIGN.md ("Observability") for why the pipeline does
// not push per-event callbacks.

// Bucket is one histogram bucket in a snapshot: N observations, each
// at most Le, the bucket's inclusive upper bound, and above the upper
// bound of the bucket just below it in the histogram.
type Bucket struct {
	Le uint64 `json:"le"`
	N  uint64 `json:"n"`
}

// HistogramSnapshot is a point-in-time copy of a Histogram; empty
// buckets are omitted.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for b := range h.buckets {
		if n := h.buckets[b].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Le: bucketMax(b), N: n})
		}
	}
	return s
}

// StageSnapshot summarizes one stage's timer.
type StageSnapshot struct {
	Count     uint64   `json:"count"`
	TotalNS   uint64   `json:"total_ns"`
	MinNS     uint64   `json:"min_ns"`
	MaxNS     uint64   `json:"max_ns"`
	AvgNS     uint64   `json:"avg_ns"`
	NSBuckets []Bucket `json:"ns_buckets,omitempty"`
}

// Snapshot is a point-in-time view of a Collector, shaped for JSON.
// BytesOutTotal = BytesOutPayload + BytesOutFraming equals the size of
// the produced stream or container exactly.
type Snapshot struct {
	Blocks          uint64                   `json:"blocks"`
	BytesIn         uint64                   `json:"bytes_in"`
	BytesOutPayload uint64                   `json:"bytes_out_payload"`
	BytesOutFraming uint64                   `json:"bytes_out_framing"`
	BytesOutTotal   uint64                   `json:"bytes_out_total"`
	Encodings       map[string]uint64        `json:"encodings"`
	BlockBytes      HistogramSnapshot        `json:"block_bytes"`
	Stages          map[string]StageSnapshot `json:"stages"`

	BlocksDecoded   uint64 `json:"blocks_decoded,omitempty"`
	DecodedBytesIn  uint64 `json:"decoded_bytes_in,omitempty"`
	DecodedBytesOut uint64 `json:"decoded_bytes_out,omitempty"`

	// EBViolations is the audited error-bound violation count; any
	// nonzero value means the hard-bound guarantee was observed broken.
	EBViolations uint64 `json:"eb_violations,omitempty"`

	// FlightAnomalies counts anomalies per reason, and FlightArtifacts
	// lists the artifact files the flight recorder has written; both are
	// empty when no recorder is attached.
	FlightAnomalies map[string]uint64 `json:"flight_anomalies,omitempty"`
	FlightArtifacts []string          `json:"flight_artifacts,omitempty"`

	Traces []TraceRecord `json:"traces,omitempty"`
}

// Snapshot materializes the collector's current state. On a nil
// collector it returns nil (which JSON-encodes as null).
func (c *Collector) Snapshot() *Snapshot {
	if c == nil {
		return nil
	}
	s := &Snapshot{
		Blocks:          c.blocks.Load(),
		BytesIn:         c.bytesIn.Load(),
		BytesOutPayload: c.bytesPayload.Load(),
		BytesOutFraming: c.bytesFraming.Load(),
		Encodings:       make(map[string]uint64, len(c.enc)),
		BlockBytes:      c.blockBytes.Snapshot(),
		Stages:          make(map[string]StageSnapshot),
		BlocksDecoded:   c.blocksDecoded.Load(),
		DecodedBytesIn:  c.decodedBytesIn.Load(),
		DecodedBytesOut: c.decodedBytesOut.Load(),
		EBViolations:    c.ebViolations.Load(),
		Traces:          c.ring.snapshot(),
	}
	if fr := c.flight.Load(); fr != nil {
		s.FlightAnomalies = fr.AnomalyCounts()
		s.FlightArtifacts = fr.ArtifactPaths()
	}
	s.BytesOutTotal = s.BytesOutPayload + s.BytesOutFraming
	for e := BlockEncoding(0); e < numBlockEncodings; e++ {
		s.Encodings[e.String()] = c.enc[e].Load()
	}
	for st := Stage(0); st < numStages; st++ {
		r := &c.stages[st]
		n := r.count.Load()
		if n == 0 {
			continue
		}
		ss := StageSnapshot{
			Count:   n,
			TotalNS: r.total.Load(),
			MaxNS:   r.max.Load(),
		}
		if m := r.min.Load(); m > 0 {
			ss.MinNS = m - 1
		}
		ss.AvgNS = ss.TotalNS / n
		ss.NSBuckets = r.hist.Snapshot().Buckets
		s.Stages[st.String()] = ss
	}
	return s
}

// JSON renders the snapshot with indentation; it never fails (the
// snapshot tree contains only marshalable types).
func (s *Snapshot) JSON() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return []byte("null")
	}
	return b
}

// Publish registers the collector under name in the process-wide
// expvar registry, so /debug/vars serves live snapshots. expvar names
// live for the process lifetime and cannot be replaced, so Publish is
// a no-op if the name is already taken (callers that swap collectors
// should register an expvar.Func over their own indirection instead).
func (c *Collector) Publish(name string) {
	if c == nil || expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return c.Snapshot() }))
}
