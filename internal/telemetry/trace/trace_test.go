package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// deterministicTracer returns a tracer with a fixed RNG seed so
// IDs and random keeps are reproducible.
func deterministicTracer(cfg Config) *Tracer {
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	return New(cfg)
}

func TestTraceparentRoundTrip(t *testing.T) {
	tid := TraceID{0x4b, 0xf9, 0x2f, 0x35, 0x77, 0xb3, 0x4d, 0xa6, 0xa3, 0xce, 0x92, 0x9d, 0x0e, 0x0e, 0x47, 0x36}
	sid := SpanID{0x00, 0xf0, 0x67, 0xaa, 0x0b, 0xa9, 0x02, 0xb7}
	h := FormatTraceparent(tid, sid, FlagSampled)
	want := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if h != want {
		t.Fatalf("FormatTraceparent = %q, want %q", h, want)
	}
	gtid, gsid, flags, ok := ParseTraceparent(h)
	if !ok || gtid != tid || gsid != sid || flags != FlagSampled {
		t.Fatalf("ParseTraceparent(%q) = %v %v %v %v", h, gtid, gsid, flags, ok)
	}
}

func TestTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // too short
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0",   // short flags
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // version ff
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero span id
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",  // uppercase hex
		"00x4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // bad separator
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", // junk suffix
	}
	for _, h := range bad {
		if _, _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want reject", h)
		}
	}
	// Future versions with a -suffix are accepted per spec.
	if _, _, _, ok := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); !ok {
		t.Error("ParseTraceparent rejected future-version suffix form")
	}
}

// TestIncomingTraceparentPinsTrace: a valid incoming header pins the
// trace ID and parents the root under the remote span, and the trace
// records whatever the header's sampled flag says — retention, not the
// caller, decides what is kept.
func TestIncomingTraceparentPinsTrace(t *testing.T) {
	tr := deterministicTracer(Config{KeepFraction: 1})
	for _, h := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
	} {
		sp := tr.StartRequest("upload", "alice", h, time.Now())
		if !sp.Recording() {
			t.Fatalf("%s: root not recording", h)
		}
		if got := sp.TraceID(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
			t.Fatalf("%s: trace id = %s, want inherited", h, got)
		}
		if got, want := sp.Traceparent(), "00-4bf92f3577b34da6a3ce929d0e0e4736-"+sp.SpanID()+"-01"; got != want {
			t.Fatalf("%s: echoed traceparent = %s, want %s", h, got, want)
		}
		if kept, _ := tr.FinishRequest(sp, time.Millisecond, false); !kept {
			t.Fatalf("%s: trace not retained at KeepFraction 1", h)
		}
	}
	ring := tr.Ring()
	if len(ring) != 2 {
		t.Fatalf("ring length = %d, want 2", len(ring))
	}
	for _, ft := range ring {
		if ft.Spans[0].ParentID != "00f067aa0ba902b7" {
			t.Fatalf("root parent = %q, want remote span id", ft.Spans[0].ParentID)
		}
	}
}

// TestRootTakesCallerInterval: the root span's start and duration are
// exactly the caller's, so a retained trace agrees with the caller's
// request log and latency histograms.
func TestRootTakesCallerInterval(t *testing.T) {
	tr := deterministicTracer(Config{KeepFraction: 1})
	start := time.Unix(1700000000, 123456789)
	sp := tr.StartRequest("read_block", "alice", "", start)
	sp.StartChild("cache.lookup").End()
	if kept, _ := tr.FinishRequest(sp, 1234567*time.Nanosecond, false); !kept {
		t.Fatal("trace not retained at KeepFraction 1")
	}
	ft := tr.Ring()[0]
	if ft.StartUnixNS != start.UnixNano() || ft.Spans[0].StartUnixNS != start.UnixNano() {
		t.Fatalf("root start = %d / %d, want %d", ft.StartUnixNS, ft.Spans[0].StartUnixNS, start.UnixNano())
	}
	if ft.DurationNS != 1234567 || ft.Spans[0].DurationNS != 1234567 {
		t.Fatalf("root duration = %d / %d ns, want 1234567", ft.DurationNS, ft.Spans[0].DurationNS)
	}
}

func TestTailRetentionRules(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		slow  bool
		drive func(sp *Span)
		want  string // "" = dropped
	}{
		{"error", Config{}, true, func(sp *Span) { sp.SetError(errors.New("boom")) }, ReasonError},
		{"latency", Config{KeepFraction: 1}, true, nil, ReasonLatency},
		{"random-all", Config{KeepFraction: 1}, false, nil, ReasonRandom},
		{"dropped", Config{}, false, nil, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := deterministicTracer(tc.cfg)
			sp := tr.StartRequest("read_block", "alice", "", time.Now())
			if tc.drive != nil {
				tc.drive(sp)
			}
			kept, reason := tr.FinishRequest(sp, time.Millisecond, tc.slow)
			if (tc.want != "") != kept || reason != tc.want {
				t.Fatalf("FinishRequest = (%v, %q), want reason %q", kept, reason, tc.want)
			}
			st := tr.Stats()
			if tc.want != "" {
				if st.RetainedByReason[tc.want] != 1 || st.TracesRetained != 1 || st.RingTraces != 1 {
					t.Fatalf("stats = %+v, want one retained as %q", st, tc.want)
				}
			} else if st.TracesRetained != 0 || st.RingTraces != 0 {
				t.Fatalf("stats = %+v, want nothing retained", st)
			}
			if st.TracesStarted != 1 || st.TracesSampled != 1 || st.TracesFinished != 1 {
				t.Fatalf("stats = %+v, want one started/sampled/finished", st)
			}
		})
	}
}

func TestRingBounded(t *testing.T) {
	tr := deterministicTracer(Config{KeepFraction: 1, RingDepth: 4})
	for i := 0; i < 10; i++ {
		sp := tr.StartRequest(fmt.Sprintf("req%d", i), "alice", "", time.Now())
		tr.FinishRequest(sp, time.Millisecond, false)
	}
	ring := tr.Ring()
	if len(ring) != 4 {
		t.Fatalf("ring length = %d, want 4", len(ring))
	}
	for i, ft := range ring {
		if want := fmt.Sprintf("req%d", 6+i); ft.Name != want {
			t.Errorf("ring[%d] = %s, want %s (oldest-first, newest retained)", i, ft.Name, want)
		}
	}
}

func TestSpanCapDropsAndCounts(t *testing.T) {
	tr := deterministicTracer(Config{KeepFraction: 1, MaxSpans: 3})
	sp := tr.StartRequest("upload", "alice", "", time.Now())
	a := sp.StartChild("a")
	b := sp.StartChild("b")
	c := sp.StartChild("c") // over cap: root + a + b = 3
	if a == nil || b == nil {
		t.Fatal("children under cap were dropped")
	}
	if c != nil {
		t.Fatal("child over cap was recorded")
	}
	a.End()
	b.End()
	tr.FinishRequest(sp, time.Millisecond, false)
	ring := tr.Ring()
	if len(ring) != 1 || len(ring[0].Spans) != 3 || ring[0].DroppedSpans != 1 {
		t.Fatalf("ring = %+v, want 3 spans with 1 dropped", ring[0])
	}
	if st := tr.Stats(); st.SpansDropped != 1 || st.SpansStarted != 3 {
		t.Fatalf("stats = %+v, want 3 started 1 dropped", st)
	}
}

// TestRecordChild: a finished child recorded after the fact lands
// under its parent with the given start and duration, obeys the span
// cap like StartChild, and is a no-op on nil or ended spans.
func TestRecordChild(t *testing.T) {
	tr := deterministicTracer(Config{KeepFraction: 1, MaxSpans: 3})
	sp := tr.StartRequest("upload", "alice", "", time.Now())
	c := sp.StartChild("compress")
	start := time.Unix(100, 5)
	c.RecordChild("encode", start, 42*time.Microsecond)
	c.RecordChild("write", start, time.Microsecond) // over cap: root + compress + encode = 3
	c.End()
	tr.FinishRequest(sp, time.Millisecond, false)
	ring := tr.Ring()
	if len(ring) != 1 || len(ring[0].Spans) != 3 || ring[0].DroppedSpans != 1 {
		t.Fatalf("ring = %+v, want 3 spans with 1 dropped", ring)
	}
	enc := ring[0].Spans[2]
	if enc.Name != "encode" || enc.ParentID != c.SpanID() || enc.StartUnixNS != start.UnixNano() ||
		enc.DurationNS != 42000 || enc.SpanID == "" || enc.SpanID == c.SpanID() {
		t.Fatalf("recorded child = %+v, want encode under %s starting %d lasting 42000 ns",
			enc, c.SpanID(), start.UnixNano())
	}
	if st := tr.Stats(); st.SpansStarted != 3 || st.SpansDropped != 1 {
		t.Fatalf("stats = %+v, want 3 started 1 dropped", st)
	}

	var nilSpan *Span
	nilSpan.RecordChild("encode", start, time.Second)
	c.RecordChild("encode", start, time.Second) // c has ended
	if n := len(tr.Ring()[0].Spans); n != 3 {
		t.Fatalf("ended span recorded a child: %d spans, want 3", n)
	}
}

func TestSpanTreeParentage(t *testing.T) {
	tr := deterministicTracer(Config{KeepFraction: 1})
	root := tr.StartRequest("upload", "alice", "", time.Now())
	compress := root.StartChild("compress")
	encode := compress.StartChild("encode")
	encode.Annotate("block", "0")
	encode.End()
	compress.End()
	commit := root.StartChild("store.commit")
	fsync := commit.StartChild("store.fsync")
	fsync.End()
	commit.End()
	tr.FinishRequest(root, time.Millisecond, false)

	ring := tr.Ring()
	if len(ring) != 1 {
		t.Fatalf("ring length = %d", len(ring))
	}
	byID := map[string]SpanData{}
	for _, sd := range ring[0].Spans {
		byID[sd.SpanID] = sd
	}
	parentName := func(sd SpanData) string {
		p, ok := byID[sd.ParentID]
		if !ok {
			return "?"
		}
		return p.Name
	}
	for _, want := range []struct{ child, parent string }{
		{"compress", "upload"},
		{"encode", "compress"},
		{"store.commit", "upload"},
		{"store.fsync", "store.commit"},
	} {
		found := false
		for _, sd := range ring[0].Spans {
			if sd.Name == want.child {
				found = true
				if got := parentName(sd); got != want.parent {
					t.Errorf("%s parent = %s, want %s", want.child, got, want.parent)
				}
				if sd.DurationNS < 0 {
					t.Errorf("%s never ended", want.child)
				}
			}
		}
		if !found {
			t.Errorf("span %s missing", want.child)
		}
	}
	if got := byID[ring[0].Spans[0].SpanID].Name; got != "upload" {
		t.Fatalf("root span = %s", got)
	}
}

func TestDoubleEndAndDoubleFinishAreNoOps(t *testing.T) {
	tr := deterministicTracer(Config{KeepFraction: 1})
	root := tr.StartRequest("upload", "alice", "", time.Now())
	c := root.StartChild("compress")
	c.End()
	c.End()
	c.Annotate("late", "ignored") // annotate after End: no-op, must not panic
	if kept, _ := tr.FinishRequest(root, time.Millisecond, false); !kept {
		t.Fatal("first FinishRequest dropped")
	}
	if kept, _ := tr.FinishRequest(root, time.Millisecond, false); kept {
		t.Fatal("second FinishRequest retained again")
	}
	if st := tr.Stats(); st.RingTraces != 1 || st.TracesFinished != 1 {
		t.Fatalf("ring traces = %d, finished = %d, want 1 and 1", st.RingTraces, st.TracesFinished)
	}
}

func TestConcurrentChildren(t *testing.T) {
	tr := deterministicTracer(Config{KeepFraction: 1, MaxSpans: 4096})
	root := tr.StartRequest("upload", "alice", "", time.Now())
	var wg sync.WaitGroup
	const workers, perWorker = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := root.StartChild("encode")
				sp.AnnotateInt("worker", int64(w))
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	tr.FinishRequest(root, time.Millisecond, false)
	ring := tr.Ring()
	if len(ring) != 1 {
		t.Fatalf("ring length = %d", len(ring))
	}
	if got := len(ring[0].Spans); got != 1+workers*perWorker {
		t.Fatalf("spans = %d, want %d", got, 1+workers*perWorker)
	}
	for _, sd := range ring[0].Spans[1:] {
		if sd.ParentID != ring[0].Spans[0].SpanID {
			t.Fatalf("concurrent child parent = %q, want root", sd.ParentID)
		}
		if sd.DurationNS < 0 {
			t.Fatal("concurrent child never ended")
		}
	}
}

func TestNilTracerAndNilSpanSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.StartRequest("upload", "alice", "", time.Now())
	if sp != nil {
		t.Fatal("nil tracer returned non-nil span")
	}
	// Every method on a nil span must be a safe no-op.
	sp.End()
	sp.Annotate("k", "v")
	sp.AnnotateInt("k", 1)
	sp.SetError(errors.New("x"))
	if sp.StartChild("x") != nil || sp.Recording() || sp.TraceID() != "" || sp.SpanID() != "" || sp.Traceparent() != "" {
		t.Fatal("nil span leaked state")
	}
	if kept, _ := tr.FinishRequest(sp, time.Millisecond, true); kept {
		t.Fatal("nil tracer retained a trace")
	}
	if got := tr.Ring(); got != nil {
		t.Fatal("nil tracer ring non-nil")
	}
	if st := tr.Stats(); st.TracesStarted != 0 {
		t.Fatal("nil tracer stats nonzero")
	}
	if cfg := tr.Config(); cfg.RingDepth != 0 || cfg.KeepFraction != 0 {
		t.Fatal("nil tracer config nonzero")
	}
}

func TestWriteChromeShape(t *testing.T) {
	tr := deterministicTracer(Config{KeepFraction: 1})
	root := tr.StartRequest("read_block", "alice", "", time.Now())
	lookup := root.StartChild("cache.lookup")
	lookup.Annotate("cache_outcome", "miss")
	fill := lookup.StartChild("cache.fill")
	fill.End()
	lookup.End()
	leak := root.StartChild("leaked")
	_ = leak // deliberately never ended: export must mark it unfinished
	tr.FinishRequest(root, time.Millisecond, false)

	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Ring()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			TS   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			PID  int               `json:"pid"`
			TID  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var meta, complete, unfinished int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			if ev.Name != "process_name" || !strings.Contains(ev.Args["name"], "keep=random") {
				t.Errorf("metadata event %+v malformed", ev)
			}
		case "X":
			complete++
			if ev.PID != 1 {
				t.Errorf("span event pid = %d, want 1", ev.PID)
			}
			if ev.Args["trace_id"] == "" || ev.Args["span_id"] == "" {
				t.Errorf("span event %q missing identity args", ev.Name)
			}
			if ev.Name != "read_block" && ev.Args["parent_id"] == "" {
				t.Errorf("child span %q missing parent_id", ev.Name)
			}
			if ev.Args["unfinished"] == "true" {
				unfinished++
			}
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	if meta != 1 || complete != 4 || unfinished != 1 {
		t.Fatalf("meta=%d complete=%d unfinished=%d, want 1/4/1", meta, complete, unfinished)
	}
}

func TestAssignLanesSeparatesOverlaps(t *testing.T) {
	spans := []SpanData{
		{Name: "root", StartUnixNS: 0, DurationNS: 100},
		{Name: "a", StartUnixNS: 10, DurationNS: 50}, // overlaps root
		{Name: "b", StartUnixNS: 20, DurationNS: 10}, // overlaps root and a
		{Name: "c", StartUnixNS: 70, DurationNS: 10}, // fits after a on a's lane
	}
	lanes := assignLanes(spans)
	if lanes[0] == lanes[1] || lanes[0] == lanes[2] || lanes[1] == lanes[2] {
		t.Fatalf("overlapping spans share a lane: %v", lanes)
	}
	if lanes[3] != lanes[1] {
		t.Fatalf("non-overlapping span did not reuse a freed lane: %v", lanes)
	}
}

// TestNilSpanAllocs proves the uninstrumented path is allocation-free:
// child creation, annotation and End on a nil span must not allocate.
func TestNilSpanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under the race detector")
	}
	var sp *Span
	allocs := testing.AllocsPerRun(1000, func() {
		c := sp.StartChild("encode")
		c.AnnotateInt("block", 7)
		c.End()
	})
	if allocs != 0 {
		t.Fatalf("nil-span instrumentation allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkNilSpan measures the per-call overhead of disabled tracing
// — the cost every hot-path kernel pays when no trace is recording.
func BenchmarkNilSpan(b *testing.B) {
	var sp *Span
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := sp.StartChild("encode")
		c.End()
	}
}

// BenchmarkRecordingSpan measures the recording path for contrast; the
// trace is finished (and dropped) every 256 spans so span storage
// stays bounded across b.N.
func BenchmarkRecordingSpan(b *testing.B) {
	tr := New(Config{Seed: 42})
	root := tr.StartRequest("bench", "alice", "", time.Now())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%256 == 255 {
			tr.FinishRequest(root, time.Millisecond, false)
			root = tr.StartRequest("bench", "alice", "", time.Now())
		}
		c := root.StartChild("encode")
		c.End()
	}
}
