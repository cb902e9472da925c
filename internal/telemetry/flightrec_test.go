package telemetry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/zcheck"
)

// goodRec returns a healthy block record: positive slack, ~8x ratio.
func goodRec() TraceRecord {
	return TraceRecord{SubBlocks: 4, Encoding: EncType0, BytesIn: 800, BytesOut: 100, EBSlack: 5e-11}
}

func TestFlightConfigDefaults(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{})
	cfg := fr.Config()
	if cfg.RatioSigma != 4 || cfg.Warmup != 64 || cfg.MaxArtifacts != 8 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestEBViolationProducesReplayableArtifact(t *testing.T) {
	dir := t.TempDir()
	eb := 1e-10
	col := New(8)
	fr := NewFlightRecorder(FlightConfig{Dir: dir, ErrorBound: eb})
	col.AttachFlight(fr)
	if !col.FlightWantsData() {
		t.Fatal("FlightWantsData must be true with a recorder attached")
	}

	// A few healthy blocks populate the trace ring (and baseline).
	for i := 0; i < 5; i++ {
		col.RecordBlock(goodRec(), nil, nil)
	}
	// Inject a genuine violation: the reconstruction is off by 3×EB on
	// one element, and the record carries negative slack.
	original := []float64{1.0, 2.0, 3.0, 4.0}
	reconstructed := []float64{1.0, 2.0, 3.0 + 3*eb, 4.0}
	bad := goodRec()
	bad.EBSlack = -2 * eb
	col.RecordBlock(bad, original, reconstructed)

	counts := fr.AnomalyCounts()
	if counts[ReasonEBViolation] != 1 {
		t.Fatalf("eb_violation count = %d, want 1 (counts %v)", counts[ReasonEBViolation], counts)
	}
	paths := fr.ArtifactPaths()
	if len(paths) != 1 {
		t.Fatalf("artifact paths = %v, want exactly one", paths)
	}
	if err := fr.Err(); err != nil {
		t.Fatalf("unexpected write error: %v", err)
	}

	// The artifact replays offline through zcheck and re-derives the
	// violation from the captured data alone.
	a, err := ReadFlightArtifact(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if a.Reason != ReasonEBViolation {
		t.Fatalf("reason = %q, want %q", a.Reason, ReasonEBViolation)
	}
	if a.ErrorBound != eb {
		t.Fatalf("artifact error bound = %g, want %g", a.ErrorBound, eb)
	}
	if len(a.Traces) == 0 {
		t.Fatal("artifact must carry the trace-ring context")
	}
	rep, err := zcheck.Assess(a.Original, a.Reconstructed, a.Record.BytesOut, a.ErrorBound)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.BoundViolated {
		t.Fatalf("replay does not confirm the violation: max err %g vs bound %g", rep.MaxAbsErr, a.ErrorBound)
	}

	// The snapshot surfaces the anomaly and artifact for -statsjson.
	snap := col.Snapshot()
	if snap.FlightAnomalies[ReasonEBViolation] != 1 || len(snap.FlightArtifacts) != 1 {
		t.Fatalf("snapshot flight fields wrong: %v / %v", snap.FlightAnomalies, snap.FlightArtifacts)
	}
}

func TestSlackFloorInjectsViolations(t *testing.T) {
	// SlackFloor lets operators (and CI) trip the detector on blocks
	// that are still within bound — every goodRec has slack 5e-11.
	col := New(4)
	fr := NewFlightRecorder(FlightConfig{SlackFloor: 1e-10})
	col.AttachFlight(fr)
	for i := 0; i < 3; i++ {
		col.RecordBlock(goodRec(), nil, nil)
	}
	if got := fr.AnomalyCounts()[ReasonEBViolation]; got != 3 {
		t.Fatalf("slack-floor anomalies = %d, want 3", got)
	}
	// Dir is empty: anomalies count but no artifacts are written.
	if paths := fr.ArtifactPaths(); len(paths) != 0 {
		t.Fatalf("artifacts written without a dir: %v", paths)
	}
}

func TestRatioOutlierDetection(t *testing.T) {
	col := New(4)
	fr := NewFlightRecorder(FlightConfig{Warmup: 16, RatioSigma: 4})
	col.AttachFlight(fr)
	// Warm the baseline with slightly varying ~8x ratios so the stddev
	// is nonzero but small.
	for i := 0; i < 32; i++ {
		r := goodRec()
		r.BytesOut = 100 + i%3
		col.RecordBlock(r, nil, nil)
	}
	if n := fr.AnomalyCounts()[ReasonRatioOutlier]; n != 0 {
		t.Fatalf("healthy warmup produced %d outliers", n)
	}
	// A block that barely compresses at all is far outside 4 sigma.
	collapsed := goodRec()
	collapsed.BytesOut = 790
	col.RecordBlock(collapsed, nil, nil)
	if n := fr.AnomalyCounts()[ReasonRatioOutlier]; n != 1 {
		t.Fatalf("ratio collapse not detected: %v", fr.AnomalyCounts())
	}
	// The outlier must not have been folded into the baseline: an
	// immediately following healthy block stays healthy.
	col.RecordBlock(goodRec(), nil, nil)
	if n := fr.AnomalyCounts()[ReasonRatioOutlier]; n != 1 {
		t.Fatalf("baseline dragged by outlier: %v", fr.AnomalyCounts())
	}
}

func TestDecodeRatioOutlier(t *testing.T) {
	col := New(4)
	fr := NewFlightRecorder(FlightConfig{Warmup: 8})
	col.AttachFlight(fr)
	for i := 0; i < 16; i++ {
		col.RecordDecodedBlock(100+i%3, 800)
	}
	col.RecordDecodedBlock(795, 800) // expansion ratio collapsed
	if n := fr.AnomalyCounts()[ReasonDecodeRatioOutlier]; n != 1 {
		t.Fatalf("decode outlier not detected: %v", fr.AnomalyCounts())
	}
}

func TestMaxArtifactsBounds(t *testing.T) {
	dir := t.TempDir()
	col := New(4)
	fr := NewFlightRecorder(FlightConfig{Dir: dir, SlackFloor: 1, MaxArtifacts: 2})
	col.AttachFlight(fr)
	for i := 0; i < 10; i++ {
		col.RecordBlock(goodRec(), nil, nil)
	}
	if got := fr.AnomalyCounts()[ReasonEBViolation]; got != 10 {
		t.Fatalf("anomaly count = %d, want 10 (counting must not stop at the artifact cap)", got)
	}
	if paths := fr.ArtifactPaths(); len(paths) != 2 {
		t.Fatalf("artifact count = %d, want MaxArtifacts=2", len(paths))
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("%d files on disk, want 2", len(ents))
	}
}

func TestArtifactWriteErrorSurfaced(t *testing.T) {
	// A file where the artifact dir should be makes MkdirAll fail; the
	// pipeline must keep running and surface the error via Err only.
	base := t.TempDir()
	block := filepath.Join(base, "not-a-dir")
	if err := os.WriteFile(block, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	col := New(4)
	fr := NewFlightRecorder(FlightConfig{Dir: filepath.Join(block, "sub"), SlackFloor: 1})
	col.AttachFlight(fr)
	col.RecordBlock(goodRec(), nil, nil)
	if err := fr.Err(); err == nil {
		t.Fatal("write failure not surfaced")
	}
	if got := fr.AnomalyCounts()[ReasonEBViolation]; got != 1 {
		t.Fatalf("anomaly not counted despite write failure: %d", got)
	}
}

func TestNilSafety(t *testing.T) {
	var fr *FlightRecorder
	if fr.AnomalyCounts() != nil || fr.ArtifactPaths() != nil || fr.Err() != nil {
		t.Fatal("nil recorder accessors must return zero values")
	}
	var col *Collector
	col.AttachFlight(NewFlightRecorder(FlightConfig{}))
	if col.Flight() != nil || col.FlightWantsData() {
		t.Fatal("nil collector must ignore flight attachment")
	}
	col.AddEBViolations(3)
	if col.EBViolations() != 0 {
		t.Fatal("nil collector must count nothing")
	}
}

func TestSortedReasonsDeterministic(t *testing.T) {
	m := map[string]uint64{"zz_custom": 1, ReasonRatioOutlier: 2}
	got := sortedReasons(m)
	want := []string{ReasonEBViolation, ReasonRatioOutlier, ReasonDecodeRatioOutlier, "zz_custom"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("sortedReasons = %v, want %v", got, want)
	}
}
