package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
)

// Hand-rolled Prometheus text-format (version 0.0.4) exporter. The
// module has a zero-dependency policy (see DESIGN.md), and the subset
// of the exposition format the collector needs — counters, gauges,
// summaries and cumulative-bucket histograms with a handful of labels
// — is small enough that emitting it directly is simpler than it
// sounds: one HELP/TYPE header per family, then `name{labels} value`
// sample lines. Scrapes are pull-based like every other snapshot
// surface: rendering walks the same atomics Snapshot does, so a
// scrape costs the pipeline nothing between scrapes.

// A PromWriter emits Prometheus text-format lines and remembers the
// first write error, so the per-family emitters stay unconditional. It
// is the module's one exposition writer: the collector, the tenant and
// SLO families and pastrid's own families all render through it.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter returns a PromWriter that writes to w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error, or nil.
func (p *PromWriter) Err() error { return p.err }

// Header emits the HELP/TYPE preamble for one metric family.
func (p *PromWriter) Header(name, help, typ string) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample emits one sample line. labels come as alternating key, value
// pairs and are rendered in the given order.
func (p *PromWriter) Sample(name string, value float64, labels ...string) {
	p.SampleExemplar(name, value, Exemplar{}, labels...)
}

// An Exemplar pins one retained trace to a sample, OpenMetrics-style,
// so a dashboard can jump from a histogram bucket to a trace that
// landed in it. The zero Exemplar is none.
type Exemplar struct {
	TraceID string
	Value   float64 // the observed value
	Unix    float64 // observation time, unix seconds
}

// SampleExemplar is Sample with ex appended to the line when it names
// a trace.
func (p *PromWriter) SampleExemplar(name string, value float64, ex Exemplar, labels ...string) {
	if p.err != nil {
		return
	}
	var sb strings.Builder
	sb.WriteString(name)
	if len(labels) > 0 {
		sb.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(labels[i])
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel(labels[i+1]))
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(formatValue(value))
	if ex.TraceID != "" {
		sb.WriteString(` # {trace_id="`)
		sb.WriteString(escapeLabel(ex.TraceID))
		sb.WriteString(`"} `)
		sb.WriteString(formatValue(ex.Value))
		sb.WriteByte(' ')
		sb.WriteString(strconv.FormatFloat(ex.Unix, 'f', 3, 64))
	}
	sb.WriteByte('\n')
	_, p.err = io.WriteString(p.w, sb.String())
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// formatValue renders a sample value. Magnitudes in [1, 1e21) are
// written without an exponent, so integer counters print as integers.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	if a := math.Abs(v); a >= 1 && a < 1e21 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the collector's current state — plus Go
// runtime/GC gauges — in Prometheus text format. A nil collector
// writes only the runtime families, so a /metrics endpoint stays
// scrapeable before a pipeline has attached its collector.
func (c *Collector) WritePrometheus(w io.Writer) error {
	p := NewPromWriter(w)
	if c != nil {
		c.writePipelineMetrics(p)
	}
	writeRuntimeMetrics(p)
	return p.Err()
}

func (c *Collector) writePipelineMetrics(p *PromWriter) {
	p.Header("pastri_blocks_total", "Blocks compressed.", "counter")
	p.Sample("pastri_blocks_total", float64(c.blocks.Load()))
	p.Header("pastri_bytes_in_total", "Raw bytes entering compression.", "counter")
	p.Sample("pastri_bytes_in_total", float64(c.bytesIn.Load()))
	p.Header("pastri_bytes_out_payload_total", "Compressed block payload bytes produced.", "counter")
	p.Sample("pastri_bytes_out_payload_total", float64(c.bytesPayload.Load()))
	p.Header("pastri_bytes_out_framing_total", "Stream and container framing bytes produced.", "counter")
	p.Sample("pastri_bytes_out_framing_total", float64(c.bytesFraming.Load()))

	p.Header("pastri_blocks_encoded_total", "Blocks per chosen ECQ encoding.", "counter")
	for e := BlockEncoding(0); e < numBlockEncodings; e++ {
		p.Sample("pastri_blocks_encoded_total", float64(c.enc[e].Load()), "encoding", e.String())
	}

	writeHistogram(p, "pastri_block_payload_bytes",
		"Compressed payload size per block.", c.blockBytes.Snapshot(), nil)

	// Stage timers: a summary (sum/count) per stage, min/max gauges,
	// and the log-linear latency histogram as cumulative buckets.
	// Durations are exported in seconds per Prometheus convention.
	p.Header("pastri_stage_duration_seconds", "Wall-clock time per pipeline stage.", "summary")
	type stageView struct {
		name string
		rec  *stageRec
	}
	var stages []stageView
	for st := Stage(0); st < numStages; st++ {
		if c.stages[st].count.Load() == 0 {
			continue
		}
		stages = append(stages, stageView{st.String(), &c.stages[st]})
	}
	for _, sv := range stages {
		p.Sample("pastri_stage_duration_seconds_sum", float64(sv.rec.total.Load())/1e9, "stage", sv.name)
		p.Sample("pastri_stage_duration_seconds_count", float64(sv.rec.count.Load()), "stage", sv.name)
	}
	p.Header("pastri_stage_duration_min_seconds", "Fastest observation per pipeline stage.", "gauge")
	for _, sv := range stages {
		minNS := uint64(0)
		if m := sv.rec.min.Load(); m > 0 {
			minNS = m - 1
		}
		p.Sample("pastri_stage_duration_min_seconds", float64(minNS)/1e9, "stage", sv.name)
	}
	p.Header("pastri_stage_duration_max_seconds", "Slowest observation per pipeline stage.", "gauge")
	for _, sv := range stages {
		p.Sample("pastri_stage_duration_max_seconds", float64(sv.rec.max.Load())/1e9, "stage", sv.name)
	}
	if len(stages) > 0 {
		// One family header, then each stage's bucket series — the format
		// allows a single TYPE line per family.
		p.Header("pastri_stage_duration_ns", "Per-stage latency in nanoseconds, log-linear buckets.", "histogram")
		for _, sv := range stages {
			writeHistogramSeries(p, "pastri_stage_duration_ns",
				sv.rec.hist.Snapshot(), []string{"stage", sv.name})
		}
	}

	p.Header("pastri_blocks_decoded_total", "Blocks decompressed.", "counter")
	p.Sample("pastri_blocks_decoded_total", float64(c.blocksDecoded.Load()))
	p.Header("pastri_decoded_bytes_in_total", "Compressed bytes consumed by decode.", "counter")
	p.Sample("pastri_decoded_bytes_in_total", float64(c.decodedBytesIn.Load()))
	p.Header("pastri_decoded_bytes_out_total", "Raw bytes produced by decode.", "counter")
	p.Sample("pastri_decoded_bytes_out_total", float64(c.decodedBytesOut.Load()))

	p.Header("pastri_eb_violations_total", "Audited blocks that broke the absolute error bound.", "counter")
	p.Sample("pastri_eb_violations_total", float64(c.ebViolations.Load()))

	if fr := c.flight.Load(); fr != nil {
		counts := fr.AnomalyCounts()
		p.Header("pastri_flight_anomalies_total", "Quality anomalies detected by the flight recorder.", "counter")
		for _, reason := range sortedReasons(counts) {
			p.Sample("pastri_flight_anomalies_total", float64(counts[reason]), "reason", reason)
		}
		p.Header("pastri_flight_artifacts_total", "Flight-recorder artifact files written.", "counter")
		p.Sample("pastri_flight_artifacts_total", float64(len(fr.ArtifactPaths())))
	}
}

// writeHistogram renders a HistogramSnapshot as a Prometheus histogram:
// cumulative buckets by ascending le, a +Inf bucket, and _sum/_count.
// The snapshot's buckets are per-bucket counts with inclusive upper
// bounds in ascending order, which matches the exposition format's
// `le` semantics once the counts are accumulated. Extra label pairs are
// appended to every sample.
func writeHistogram(p *PromWriter, name, help string, h HistogramSnapshot, labels []string) {
	p.Header(name, help, "histogram")
	writeHistogramSeries(p, name, h, labels)
}

// writeHistogramSeries emits one labeled bucket/_sum/_count series
// without the family header, for families with several label sets.
func writeHistogramSeries(p *PromWriter, name string, h HistogramSnapshot, labels []string) {
	cum := uint64(0)
	for _, b := range h.Buckets {
		if b.Le == math.MaxUint64 {
			// The top bucket ends at MaxUint64; it folds into the +Inf
			// bucket below.
			continue
		}
		cum += b.N
		p.Sample(name+"_bucket", float64(cum),
			append(append([]string(nil), labels...), "le", formatValue(float64(b.Le)))...)
	}
	p.Sample(name+"_bucket", float64(h.Count),
		append(append([]string(nil), labels...), "le", "+Inf")...)
	p.Sample(name+"_sum", float64(h.Sum), labels...)
	p.Sample(name+"_count", float64(h.Count), labels...)
}

func writeRuntimeMetrics(p *PromWriter) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.Header("go_goroutines", "Live goroutines.", "gauge")
	p.Sample("go_goroutines", float64(runtime.NumGoroutine()))
	p.Header("go_gc_cycles_total", "Completed GC cycles.", "counter")
	p.Sample("go_gc_cycles_total", float64(m.NumGC))
	p.Header("go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects.", "gauge")
	p.Sample("go_memstats_heap_alloc_bytes", float64(m.HeapAlloc))
	p.Header("go_memstats_heap_objects", "Number of allocated heap objects.", "gauge")
	p.Sample("go_memstats_heap_objects", float64(m.HeapObjects))
	p.Header("go_memstats_sys_bytes", "Bytes obtained from the OS.", "gauge")
	p.Sample("go_memstats_sys_bytes", float64(m.Sys))
	p.Header("go_memstats_alloc_bytes_total", "Cumulative bytes allocated.", "counter")
	p.Sample("go_memstats_alloc_bytes_total", float64(m.TotalAlloc))
	p.Header("go_memstats_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", "counter")
	p.Sample("go_memstats_gc_pause_seconds_total", float64(m.PauseTotalNs)/1e9)
	p.Header("go_memstats_gc_cpu_fraction", "Fraction of CPU time spent in GC.", "gauge")
	p.Sample("go_memstats_gc_cpu_fraction", m.GCCPUFraction)
}

// MetricsHandler serves Prometheus text format for whatever collector
// get returns at scrape time — the indirection lets a long-lived
// process (or the pastri CLI's debug server, which swaps collectors
// per run) publish one stable /metrics endpoint.
func MetricsHandler(get func() *Collector) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		get().WritePrometheus(w)
	})
}
