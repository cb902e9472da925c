package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	pastri "repro"
	"repro/internal/zcheck"
)

// Tests for the observability surface added with the flight recorder:
// -audit, -metricsout, -log/-loglevel, -flight/-flightslack, and the
// /metrics endpoint of the debug server. The Prometheus text grammar
// itself is validated by internal/telemetry's parser tests; here the
// checks are end-to-end through the CLI.

func TestAuditCompressPasses(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "in.f64")
	comp := filepath.Join(dir, "out.pstr")
	writeRawFile(t, raw, testData())

	var out bytes.Buffer
	o := compressOpts(raw, comp, func(o *cliOpts) {
		o.audit = true
		o.stdout = &out
	})
	if err := run(o); err != nil {
		t.Fatalf("compress with -audit: %v", err)
	}
	txt := out.String()
	if !strings.Contains(txt, "audit: 2 blocks") || !strings.Contains(txt, "violations 0") {
		t.Fatalf("audit summary missing or wrong:\n%s", txt)
	}
}

func TestAuditDecompress(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "in.f64")
	comp := filepath.Join(dir, "out.pstr")
	back := filepath.Join(dir, "back.f64")
	writeRawFile(t, raw, testData())
	if err := run(compressOpts(raw, comp, nil)); err != nil {
		t.Fatal(err)
	}

	// -d -audit without -auditorig has nothing to compare against.
	o := cliOpts{decompress: true, inPath: comp, outPath: back, workers: 1,
		audit: true, stdout: io.Discard}
	if err := run(o); err == nil || !strings.Contains(err.Error(), "auditorig") {
		t.Fatalf("-d -audit without -auditorig: err = %v, want -auditorig complaint", err)
	}

	var out bytes.Buffer
	o.auditOrig = raw
	o.stdout = &out
	if err := run(o); err != nil {
		t.Fatalf("-d -audit with -auditorig: %v", err)
	}
	if !strings.Contains(out.String(), "violations 0") {
		t.Fatalf("audit summary missing:\n%s", out.String())
	}
}

func TestMetricsOutFile(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "in.f64")
	comp := filepath.Join(dir, "out.pstr")
	metrics := filepath.Join(dir, "metrics.prom")
	writeRawFile(t, raw, testData())

	o := compressOpts(raw, comp, func(o *cliOpts) { o.metricsOut = metrics })
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	txt := string(b)
	for _, want := range []string{
		"# TYPE pastri_blocks_total counter",
		"pastri_blocks_total 2",
		"# TYPE pastri_stage_duration_seconds summary",
		"# TYPE pastri_block_payload_bytes histogram",
		"go_goroutines",
	} {
		if !strings.Contains(txt, want) {
			t.Errorf("-metricsout scrape missing %q:\n%.600s", want, txt)
		}
	}
}

func TestStructuredLogJSON(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "in.f64")
	comp := filepath.Join(dir, "out.pstr")
	writeRawFile(t, raw, testData())

	var logs bytes.Buffer
	o := compressOpts(raw, comp, func(o *cliOpts) {
		o.logMode, o.logLevel, o.logw = "json", "debug", &logs
	})
	if err := run(o); err != nil {
		t.Fatal(err)
	}

	var msgs []string
	blockLines := 0
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		msg, _ := rec["msg"].(string)
		msgs = append(msgs, msg)
		if msg == "block compressed" {
			blockLines++
			for _, key := range []string{"block", "class", "encoding", "bytes_in", "bytes_out", "eb_slack"} {
				if _, ok := rec[key]; !ok {
					t.Errorf("block log line missing %q: %s", key, line)
				}
			}
			if rec["class"] != "36x36" {
				t.Errorf("class = %v, want 36x36", rec["class"])
			}
		}
	}
	if blockLines != 2 {
		t.Fatalf("block compressed lines = %d, want 2 (msgs: %v)", blockLines, msgs)
	}
	joined := strings.Join(msgs, "|")
	if !strings.Contains(joined, "stream compressed") {
		t.Fatalf("summary log line missing (msgs: %v)", msgs)
	}
}

// TestStructuredLogDecompress: -d -log json -loglevel info emits one
// stream decompressed summary carrying the stream's geometry, error
// bound, byte counts and worker count.
func TestStructuredLogDecompress(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "in.f64")
	comp := filepath.Join(dir, "out.pstr")
	writeRawFile(t, raw, testData())
	if err := run(compressOpts(raw, comp, nil)); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	o := cliOpts{decompress: true, inPath: comp, outPath: filepath.Join(dir, "back.f64"), workers: 1,
		logMode: "json", logLevel: "info", logw: &logs, stdout: io.Discard}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	var summaries []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		if rec["msg"] == "stream decompressed" {
			summaries = append(summaries, rec)
		}
	}
	if len(summaries) != 1 {
		t.Fatalf("stream decompressed lines = %d, want 1:\n%s", len(summaries), logs.String())
	}
	rec := summaries[0]
	for _, key := range []string{"blocks", "class", "error_bound", "bytes_in", "bytes_out", "workers"} {
		if _, ok := rec[key]; !ok {
			t.Errorf("stream decompressed record missing %q: %v", key, rec)
		}
	}
	if rec["blocks"] != 2.0 || rec["class"] != "36x36" || rec["error_bound"] != 1e-10 ||
		rec["bytes_out"] != float64(len(testData())*8) || rec["workers"] != 1.0 {
		t.Errorf("stream decompressed record = %v, want 2 blocks of 36x36 at 1e-10, %d bytes out, 1 worker",
			rec, len(testData())*8)
	}
}

func TestStructuredLogOffAndBadFlags(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "in.f64")
	writeRawFile(t, raw, testData())

	var logs bytes.Buffer
	o := compressOpts(raw, filepath.Join(dir, "o1"), func(o *cliOpts) { o.logw = &logs })
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if logs.Len() != 0 {
		t.Fatalf("-log off produced output: %s", logs.String())
	}

	o = compressOpts(raw, filepath.Join(dir, "o2"), func(o *cliOpts) { o.logMode = "xml" })
	if err := run(o); err == nil || !strings.Contains(err.Error(), "-log") {
		t.Fatalf("bad -log accepted: %v", err)
	}
	o = compressOpts(raw, filepath.Join(dir, "o3"), func(o *cliOpts) {
		o.logMode, o.logLevel = "text", "loud"
	})
	if err := run(o); err == nil || !strings.Contains(err.Error(), "-loglevel") {
		t.Fatalf("bad -loglevel accepted: %v", err)
	}
}

// TestFlightArtifactEndToEnd drives the acceptance scenario: a
// compression run whose slack floor is set impossibly high records
// anomalies on every block, writes bounded artifacts, and each artifact
// replays offline through zcheck against the captured block data.
func TestFlightArtifactEndToEnd(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "in.f64")
	comp := filepath.Join(dir, "out.pstr")
	flightDir := filepath.Join(dir, "flight")
	writeRawFile(t, raw, testData())

	var out bytes.Buffer
	o := compressOpts(raw, comp, func(o *cliOpts) {
		o.flightDir = flightDir
		o.flightSlack = 1 // every block's slack is below this: forced anomalies
		o.stdout = &out
	})
	if err := run(o); err != nil {
		t.Fatalf("compress with flight recorder: %v", err)
	}
	if !strings.Contains(out.String(), "flight: 2 eb_violation anomalies") {
		t.Fatalf("flight summary missing:\n%s", out.String())
	}

	ents, err := os.ReadDir(flightDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("artifacts on disk = %d, want 2", len(ents))
	}
	for _, e := range ents {
		a, err := pastri.ReadFlightArtifact(filepath.Join(flightDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if a.Reason != "eb_violation" || len(a.Original) != 36*36 || len(a.Reconstructed) != 36*36 {
			t.Fatalf("artifact %s incomplete: reason %q, %d/%d values",
				e.Name(), a.Reason, len(a.Original), len(a.Reconstructed))
		}
		rep, err := zcheck.Assess(a.Original, a.Reconstructed, a.Record.BytesOut, a.ErrorBound)
		if err != nil {
			t.Fatal(err)
		}
		// These anomalies were injected via the slack floor, not real
		// bound breaks — the replay must agree the bound itself held.
		if rep.BoundViolated {
			t.Fatalf("replay of %s reports a real bound violation (max err %g)", e.Name(), rep.MaxAbsErr)
		}
	}
}

// TestMetricsEndpoint scrapes /metrics from the -pprof debug server.
func TestMetricsEndpoint(t *testing.T) {
	col := pastri.NewCollector()
	ln, err := startDebugServer("127.0.0.1:0", col)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	opts := pastri.NewOptions(36, 36, 1e-10)
	opts.Workers = 1
	opts.Collector = col
	if _, err := pastri.Compress(testData(), opts); err != nil {
		t.Fatal(err)
	}
	body := httpGet(t, "http://"+ln.Addr().String()+"/metrics")
	txt := string(body)
	if !strings.Contains(txt, "pastri_blocks_total 2") || !strings.Contains(txt, "go_goroutines") {
		t.Fatalf("/metrics scrape incomplete:\n%.600s", txt)
	}
}
