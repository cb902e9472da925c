package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// traceEventJSON mirrors the Chrome trace-event shape /debug/traces
// serves, reduced to what the assertions need.
type traceEventJSON struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Args map[string]string `json:"args"`
}

// traceTree is one trace's spans indexed for parentage assertions.
type traceTree struct {
	events []traceEventJSON // "X" spans only, in export order
}

// byName returns the first span with name, failing the test when n
// spans with that name is not exactly want (-1 = at least one).
func (tt *traceTree) byName(t *testing.T, name string) traceEventJSON {
	t.Helper()
	for _, ev := range tt.events {
		if ev.Name == name {
			return ev
		}
	}
	t.Fatalf("trace has no %q span (spans: %s)", name, tt.spanNames())
	return traceEventJSON{}
}

func (tt *traceTree) has(name string) bool {
	for _, ev := range tt.events {
		if ev.Name == name {
			return true
		}
	}
	return false
}

func (tt *traceTree) spanNames() string {
	names := make([]string, 0, len(tt.events))
	for _, ev := range tt.events {
		names = append(names, ev.Name)
	}
	return strings.Join(names, ", ")
}

// assertChild asserts child's parent_id is parent's span_id.
func (tt *traceTree) assertChild(t *testing.T, child, parent string) {
	t.Helper()
	c, p := tt.byName(t, child), tt.byName(t, parent)
	if c.Args["parent_id"] != p.Args["span_id"] {
		t.Fatalf("%s has parent_id %q, want %s's span_id %q",
			child, c.Args["parent_id"], parent, p.Args["span_id"])
	}
}

// TestRequestTraceTree is the end-to-end tracing check: upload a
// stream with a pinned incoming traceparent, read a block twice (miss
// then hit) and once out of range, then assert the exported traces
// cover edge → handler → {compress stages | cache | store} with
// correct parentage.
func TestRequestTraceTree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Listen = "127.0.0.1:0"
	cfg.StoreDir = t.TempDir()
	cfg.CacheBytes = 1 << 20
	cfg.Workers = 2
	cfg.Tenants = map[string]TenantConfig{"alice": {}}
	// Keep everything: retention decisions themselves are unit-tested
	// in the trace package; this test is about span structure.
	cfg.Trace = TraceConfig{KeepFraction: 1, RingDepth: 64}
	srv, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	do := func(method, path, traceparent string, body []byte) (int, string) {
		t.Helper()
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Pastri-Tenant", "alice")
		if traceparent != "" {
			req.Header.Set("Traceparent", traceparent)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Traceparent")
	}

	const (
		remoteTraceID = "0af7651916cd43dd8448eb211c80319c"
		remoteSpanID  = "b7ad6b7169203331"
		incoming      = "00-" + remoteTraceID + "-" + remoteSpanID + "-01"
	)
	status, echoed := do("POST", "/v1/streams?id=s1", incoming, wireBody(3))
	if status != http.StatusCreated {
		t.Fatalf("upload status %d", status)
	}
	// The echoed traceparent continues the incoming trace under the
	// server's own root span ID.
	if !strings.HasPrefix(echoed, "00-"+remoteTraceID+"-") || !strings.HasSuffix(echoed, "-01") {
		t.Fatalf("echoed traceparent %q does not continue incoming trace %q", echoed, incoming)
	}
	if strings.Contains(echoed, remoteSpanID) {
		t.Fatalf("echoed traceparent %q reuses the caller's span id", echoed)
	}
	if status, _ := do("GET", "/v1/streams/s1/blocks/0", "", nil); status != http.StatusOK {
		t.Fatalf("first read status %d", status)
	}
	if status, _ := do("GET", "/v1/streams/s1/blocks/0", "", nil); status != http.StatusOK {
		t.Fatalf("second read status %d", status)
	}
	if status, _ := do("GET", "/v1/streams/s1/blocks/99", "", nil); status != http.StatusNotFound {
		t.Fatalf("out-of-range read status %d", status)
	}

	// Export via the debug route, exactly as an operator would.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/debug/traces", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/debug/traces content-type %q", ct)
	}
	var doc struct {
		TraceEvents []traceEventJSON `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding /debug/traces: %v", err)
	}
	trees := make(map[string]*traceTree) // trace_id → spans
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		id := ev.Args["trace_id"]
		if trees[id] == nil {
			trees[id] = &traceTree{}
		}
		trees[id].events = append(trees[id].events, ev)
	}

	// Upload trace: pinned to the incoming trace ID, rooted under the
	// caller's span, compress stages and store commit as a proper tree.
	up := trees[remoteTraceID]
	if up == nil {
		t.Fatalf("no trace with incoming trace id %s in export (have %d traces)", remoteTraceID, len(trees))
	}
	root := up.byName(t, "upload")
	if root.Args["parent_id"] != remoteSpanID {
		t.Fatalf("upload root parent_id %q, want the caller's span %q", root.Args["parent_id"], remoteSpanID)
	}
	if root.Args["http_status"] != "201" {
		t.Fatalf("upload root http_status %q, want 201", root.Args["http_status"])
	}
	up.assertChild(t, "compress", "upload")
	up.assertChild(t, "store.commit", "upload")
	up.assertChild(t, "store.fsync", "store.commit")
	up.assertChild(t, "store.build_index", "store.commit")
	for _, stage := range []string{"block_split", "pattern_fit", "quantize", "encode", "sequencer_wait", "write"} {
		up.assertChild(t, stage, "compress")
	}
	if got := up.byName(t, "compress").Args["blocks"]; got != "3" {
		t.Fatalf("compress span blocks annotation %q, want 3", got)
	}

	// Read traces: one miss (fill → store read/decode), one hit (no
	// fill), one out-of-range miss whose fill errored.
	var miss, hit, failed *traceTree
	for id, tt := range trees {
		if id == remoteTraceID || !tt.has("read_block") {
			continue
		}
		lookup := tt.byName(t, "cache.lookup")
		switch {
		case lookup.Args["cache_outcome"] == "hit":
			hit = tt
		case tt.byName(t, "read_block").Args["http_status"] == "404":
			failed = tt
		default:
			miss = tt
		}
	}
	if miss == nil || hit == nil || failed == nil {
		t.Fatalf("expected miss, hit and failed read traces (miss=%v hit=%v failed=%v)",
			miss != nil, hit != nil, failed != nil)
	}
	miss.assertChild(t, "cache.lookup", "read_block")
	miss.assertChild(t, "cache.fill", "cache.lookup")
	miss.assertChild(t, "store.read_at", "cache.fill")
	miss.assertChild(t, "store.decode", "cache.fill")
	if out := miss.byName(t, "cache.lookup").Args["cache_outcome"]; out != "miss" {
		t.Fatalf("first read cache_outcome %q, want miss", out)
	}
	if hit.has("cache.fill") {
		t.Fatalf("cache hit trace ran a fill (spans: %s)", hit.spanNames())
	}
	if failed.byName(t, "cache.fill").Args["error"] != "true" {
		t.Fatal("failed fill span is not marked as an error")
	}

	// Every request above survived tail sampling (keep_fraction 1), so
	// the stats and the export must agree.
	st := srv.tracer.Stats()
	if st.TracesRetained != uint64(len(trees)) {
		t.Fatalf("stats retained %d traces, export has %d", st.TracesRetained, len(trees))
	}
	if st.SpansDropped != 0 {
		t.Fatalf("unexpected dropped spans: %d", st.SpansDropped)
	}
}

// TestStageSpansMatchCollector holds the two views of one upload's
// compress stages to each other. Every stage interval is timed once
// and recorded in both the tenant collector and the request trace, so
// for each compress stage the compress span's children with that name
// must carry exactly the collector's observation count and total
// nanoseconds.
func TestStageSpansMatchCollector(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Listen = "127.0.0.1:0"
	cfg.StoreDir = t.TempDir()
	cfg.Workers = 2
	cfg.Tenants = map[string]TenantConfig{"alice": {}}
	cfg.Trace = TraceConfig{KeepFraction: 1, RingDepth: 8}
	srv, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	const blocks = 8
	upload(t, ts, "alice", "s1", wireBody(blocks))
	ts.Close() // waits for the handler, so the trace is finished and retained

	var up *trace.FinishedTrace
	for _, ft := range srv.tracer.Ring() {
		if ft.Name == "upload" {
			up = ft
		}
	}
	if up == nil {
		t.Fatal("upload trace not retained")
	}
	compressID := ""
	for _, sd := range up.Spans {
		if sd.Name == "compress" {
			compressID = sd.SpanID
		}
	}
	if compressID == "" {
		t.Fatal("upload trace has no compress span")
	}
	type total struct{ count, ns uint64 }
	spans := make(map[string]total)
	for _, sd := range up.Spans {
		if sd.ParentID == compressID {
			tot := spans[sd.Name]
			tot.count++
			tot.ns += uint64(sd.DurationNS)
			spans[sd.Name] = tot
		}
	}

	snap := srv.collectors["alice"].Snapshot()
	for _, stage := range []telemetry.Stage{
		telemetry.StageBlockSplit, telemetry.StagePatternFit, telemetry.StageQuantize,
		telemetry.StageEncode, telemetry.StageSequencerWait, telemetry.StageWrite,
	} {
		name := stage.String()
		col := snap.Stages[name]
		if col.Count == 0 {
			t.Errorf("%s: collector recorded nothing", name)
		}
		if got := spans[name]; got.count != col.Count || got.ns != col.TotalNS {
			t.Errorf("%s: spans %d totalling %d ns, collector %d observations totalling %d ns",
				name, got.count, got.ns, col.Count, col.TotalNS)
		}
	}
	// One wait per block plus the wait for the results channel to close.
	if got := snap.Stages[telemetry.StageSequencerWait.String()].Count; got != blocks+1 {
		t.Errorf("sequencer_wait observed %d times, want %d", got, blocks+1)
	}
}
