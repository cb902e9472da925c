package telemetry

import (
	"io"
	"math"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// --- a miniature Prometheus text-format (0.0.4) parser ---------------
//
// The exporter is hand-rolled, so the test battery parses its output
// with an independent reimplementation of the exposition grammar: HELP
// and TYPE comment lines, then `name{label="value",...} value` samples.
// Anything the grammar does not allow is a test failure.

var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

type promDoc struct {
	types   map[string]string // family -> counter|gauge|summary|histogram
	helps   map[string]string
	samples []promSample
}

// family strips the _bucket/_sum/_count suffix a sample inherits from
// its histogram or summary family.
func family(doc *promDoc, name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name {
			if t := doc.types[base]; t == "histogram" || t == "summary" {
				return base
			}
		}
	}
	return name
}

func parseProm(t *testing.T, text string) *promDoc {
	t.Helper()
	doc := &promDoc{types: map[string]string{}, helps: map[string]string{}}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || !promNameRe.MatchString(name) {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			doc.helps[name] = help
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || !promNameRe.MatchString(name) {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch typ {
			case "counter", "gauge", "summary", "histogram", "untyped":
			default:
				t.Fatalf("line %d: unknown metric type %q", ln+1, typ)
			}
			if _, dup := doc.types[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for family %s", ln+1, name)
			}
			doc.types[name] = typ
		case strings.HasPrefix(line, "#"):
			// other comments are legal
		default:
			doc.samples = append(doc.samples, parsePromSample(t, ln+1, line))
		}
	}
	// Every sample must belong to a family that declared HELP and TYPE
	// before it was emitted.
	for _, s := range doc.samples {
		fam := family(doc, s.name)
		if _, ok := doc.types[fam]; !ok {
			t.Fatalf("sample %s has no TYPE header (family %s)", s.name, fam)
		}
		if _, ok := doc.helps[fam]; !ok {
			t.Fatalf("sample %s has no HELP header (family %s)", s.name, fam)
		}
	}
	return doc
}

func parsePromSample(t *testing.T, ln int, line string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		t.Fatalf("line %d: no value separator: %q", ln, line)
	} else {
		s.name = rest[:i]
		rest = rest[i:]
	}
	if !promNameRe.MatchString(s.name) {
		t.Fatalf("line %d: bad metric name %q", ln, s.name)
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			t.Fatalf("line %d: unterminated label set: %q", ln, line)
		}
		for _, pair := range strings.Split(rest[1:end], ",") {
			k, v, ok := strings.Cut(pair, "=")
			if !ok || !promLabelRe.MatchString(k) {
				t.Fatalf("line %d: bad label pair %q", ln, pair)
			}
			if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				t.Fatalf("line %d: label value not quoted: %q", ln, pair)
			}
			s.labels[k] = v[1 : len(v)-1]
		}
		rest = rest[end+1:]
	}
	rest = strings.TrimPrefix(rest, " ")
	var err error
	if rest == "+Inf" {
		s.value = math.Inf(1)
	} else if s.value, err = strconv.ParseFloat(rest, 64); err != nil {
		t.Fatalf("line %d: bad sample value %q: %v", ln, rest, err)
	}
	return s
}

// find returns all samples with the given name whose labels include
// every key=value in want.
func (d *promDoc) find(name string, want map[string]string) []promSample {
	var out []promSample
	for _, s := range d.samples {
		if s.name != name {
			continue
		}
		ok := true
		for k, v := range want {
			if s.labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, s)
		}
	}
	return out
}

func (d *promDoc) one(t *testing.T, name string, want map[string]string) promSample {
	t.Helper()
	ss := d.find(name, want)
	if len(ss) != 1 {
		t.Fatalf("%s%v: %d samples, want 1", name, want, len(ss))
	}
	return ss[0]
}

// checkHistogram asserts the cumulative-bucket invariants for one
// histogram family restricted to the given labels: le values strictly
// ascending, counts non-decreasing, a +Inf bucket equal to _count.
func checkHistogram(t *testing.T, doc *promDoc, name string, labels map[string]string) {
	t.Helper()
	if typ := doc.types[name]; typ != "histogram" {
		t.Fatalf("%s TYPE = %q, want histogram", name, typ)
	}
	buckets := doc.find(name+"_bucket", labels)
	if len(buckets) == 0 {
		t.Fatalf("%s: no buckets", name)
	}
	sort.Slice(buckets, func(i, j int) bool {
		return promLe(t, buckets[i]) < promLe(t, buckets[j])
	})
	prevLe := math.Inf(-1)
	prevN := -1.0
	for _, b := range buckets {
		le := promLe(t, b)
		if le <= prevLe {
			t.Fatalf("%s: le %g not ascending after %g", name, le, prevLe)
		}
		if b.value < prevN {
			t.Fatalf("%s: bucket count %g decreased below %g at le=%g", name, b.value, prevN, le)
		}
		prevLe, prevN = le, b.value
	}
	last := buckets[len(buckets)-1]
	if !math.IsInf(promLe(t, last), 1) {
		t.Fatalf("%s: final bucket le = %v, want +Inf", name, last.labels["le"])
	}
	count := doc.one(t, name+"_count", labels)
	if last.value != count.value {
		t.Fatalf("%s: +Inf bucket %g != _count %g", name, last.value, count.value)
	}
}

func promLe(t *testing.T, s promSample) float64 {
	t.Helper()
	le, ok := s.labels["le"]
	if !ok {
		t.Fatalf("bucket sample without le label: %v", s)
	}
	if le == "+Inf" {
		return math.Inf(1)
	}
	v, err := strconv.ParseFloat(le, 64)
	if err != nil {
		t.Fatalf("bad le %q: %v", le, err)
	}
	return v
}

// --- exporter tests --------------------------------------------------

func TestWritePrometheusNilCollector(t *testing.T) {
	var c *Collector
	var sb strings.Builder
	if err := c.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	doc := parseProm(t, sb.String())
	for _, s := range doc.samples {
		if !strings.HasPrefix(s.name, "go_") {
			t.Fatalf("nil collector emitted pipeline metric %s", s.name)
		}
	}
	doc.one(t, "go_goroutines", nil)
	doc.one(t, "go_gc_cycles_total", nil)
	doc.one(t, "go_memstats_heap_alloc_bytes", nil)
}

// populatedCollector simulates a small compression + decode run with a
// flight recorder attached, touching every exported family.
func populatedCollector(t *testing.T) *Collector {
	t.Helper()
	c := New(4)
	fr := NewFlightRecorder(FlightConfig{SlackFloor: 1e-11})
	c.AttachFlight(fr)
	for i := 0; i < 6; i++ {
		rec := goodRec()
		rec.BytesOut = 90 + 10*i
		if i == 5 {
			rec.EBSlack = 1e-12 // below the slack floor -> one anomaly
		}
		c.RecordBlock(rec, nil, nil)
	}
	c.AddFramingBytes(64)
	c.AddEBViolations(2)
	c.stages[StageEncode].observe(time.Millisecond)
	c.stages[StageEncode].observe(2 * time.Millisecond)
	c.stages[StageDecode].observe(500 * time.Microsecond)
	c.RecordDecodedBlock(100, 800)
	return c
}

func TestWritePrometheusPipeline(t *testing.T) {
	c := populatedCollector(t)
	var sb strings.Builder
	if err := c.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	doc := parseProm(t, sb.String())

	if got := doc.one(t, "pastri_blocks_total", nil).value; got != 6 {
		t.Fatalf("pastri_blocks_total = %g, want 6", got)
	}
	if got := doc.one(t, "pastri_bytes_in_total", nil).value; got != 6*800 {
		t.Fatalf("pastri_bytes_in_total = %g, want %d", got, 6*800)
	}
	if got := doc.one(t, "pastri_bytes_out_framing_total", nil).value; got != 64 {
		t.Fatalf("framing bytes = %g, want 64", got)
	}
	if got := doc.one(t, "pastri_eb_violations_total", nil).value; got != 2 {
		t.Fatalf("eb violations = %g, want 2", got)
	}
	if typ := doc.types["pastri_blocks_total"]; typ != "counter" {
		t.Fatalf("pastri_blocks_total TYPE = %q, want counter", typ)
	}

	// One encoding sample per known encoding, all blocks attributed.
	encSamples := doc.find("pastri_blocks_encoded_total", nil)
	total := 0.0
	for _, s := range encSamples {
		if s.labels["encoding"] == "" {
			t.Fatalf("encoding sample without label: %v", s)
		}
		total += s.value
	}
	if len(encSamples) != int(numBlockEncodings) || total != 6 {
		t.Fatalf("encoding samples = %d (sum %g), want %d summing to 6", len(encSamples), total, numBlockEncodings)
	}

	// Payload-size histogram obeys the cumulative-bucket invariants.
	checkHistogram(t, doc, "pastri_block_payload_bytes", nil)

	// Stage summary: only stages with observations appear, durations in
	// seconds, and the per-stage ns histogram is well-formed.
	if typ := doc.types["pastri_stage_duration_seconds"]; typ != "summary" {
		t.Fatalf("stage duration TYPE = %q, want summary", typ)
	}
	enc := map[string]string{"stage": "encode"}
	if got := doc.one(t, "pastri_stage_duration_seconds_count", enc).value; got != 2 {
		t.Fatalf("encode stage count = %g, want 2", got)
	}
	sum := doc.one(t, "pastri_stage_duration_seconds_sum", enc).value
	if sum <= 0 || sum > 1 {
		t.Fatalf("encode stage sum = %g s, want a few milliseconds", sum)
	}
	minV := doc.one(t, "pastri_stage_duration_min_seconds", enc).value
	maxV := doc.one(t, "pastri_stage_duration_max_seconds", enc).value
	if minV <= 0 || maxV < minV || sum < maxV {
		t.Fatalf("stage min/max/sum inconsistent: min %g max %g sum %g", minV, maxV, sum)
	}
	checkHistogram(t, doc, "pastri_stage_duration_ns", enc)
	checkHistogram(t, doc, "pastri_stage_duration_ns", map[string]string{"stage": "decode"})
	if ss := doc.find("pastri_stage_duration_seconds_count", map[string]string{"stage": "pattern_fit"}); len(ss) != 0 {
		t.Fatalf("idle stage exported: %v", ss)
	}

	// Decode counters.
	if got := doc.one(t, "pastri_blocks_decoded_total", nil).value; got != 1 {
		t.Fatalf("blocks decoded = %g, want 1", got)
	}
	if got := doc.one(t, "pastri_decoded_bytes_out_total", nil).value; got != 800 {
		t.Fatalf("decoded bytes out = %g, want 800", got)
	}

	// Flight recorder families, with the slack-floor anomaly counted.
	v := doc.one(t, "pastri_flight_anomalies_total", map[string]string{"reason": ReasonEBViolation})
	if v.value != 1 {
		t.Fatalf("flight eb_violation anomalies = %g, want 1", v.value)
	}
	doc.one(t, "pastri_flight_artifacts_total", nil)

	// Runtime gauges ride along.
	doc.one(t, "go_goroutines", nil)
	doc.one(t, "go_memstats_gc_cpu_fraction", nil)
}

func TestWritePrometheusWithoutFlight(t *testing.T) {
	c := New(0)
	c.RecordBlock(goodRec(), nil, nil)
	var sb strings.Builder
	if err := c.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	doc := parseProm(t, sb.String())
	if ss := doc.find("pastri_flight_anomalies_total", nil); len(ss) != 0 {
		t.Fatalf("flight families exported without a recorder: %v", ss)
	}
	if got := doc.one(t, "pastri_blocks_total", nil).value; got != 1 {
		t.Fatalf("pastri_blocks_total = %g, want 1", got)
	}
}

func TestWritePrometheusPropagatesWriteError(t *testing.T) {
	c := populatedCollector(t)
	if err := c.WritePrometheus(failWriter{}); err == nil {
		t.Fatal("write error swallowed")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }

func TestEscapeLabel(t *testing.T) {
	in := "a\\b\"c\nd"
	want := `a\\b\"c\nd`
	if got := escapeLabel(in); got != want {
		t.Fatalf("escapeLabel(%q) = %q, want %q", in, got, want)
	}
}

func TestMetricsHandler(t *testing.T) {
	c := populatedCollector(t)
	h := MetricsHandler(func() *Collector { return c })
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type = %q", ct)
	}
	doc := parseProm(t, rr.Body.String())
	doc.one(t, "pastri_blocks_total", nil)

	// The handler follows the getter, so a swapped-in nil collector
	// still serves the runtime families.
	h = MetricsHandler(func() *Collector { return nil })
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	doc = parseProm(t, rr.Body.String())
	if ss := doc.find("pastri_blocks_total", nil); len(ss) != 0 {
		t.Fatalf("nil collector served pipeline metrics: %v", ss)
	}
	doc.one(t, "go_goroutines", nil)
}
