package main

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	pastri "repro"
)

func writeRaw(t *testing.T, path string, data []float64) {
	t.Helper()
	buf := make([]byte, len(data)*8)
	for i, v := range data {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestZCheckRawPair(t *testing.T) {
	dir := t.TempDir()
	orig := filepath.Join(dir, "orig.f64")
	recon := filepath.Join(dir, "recon.f64")
	a := []float64{1, 2, 3, 4}
	b := []float64{1.0001, 2, 3, 3.9999}
	writeRaw(t, orig, a)
	writeRaw(t, recon, b)
	if err := run(orig, recon, "", 10, 0); err != nil {
		t.Fatal(err)
	}
	// With a tight bound it must report the violation as an error.
	if err := run(orig, recon, "", 10, 1e-6); err == nil {
		t.Fatal("violated bound not reported")
	}
	if err := run(orig, recon, "", 10, 1e-3); err != nil {
		t.Fatalf("satisfied bound rejected: %v", err)
	}
}

func TestZCheckPaSTRIStream(t *testing.T) {
	dir := t.TempDir()
	orig := filepath.Join(dir, "orig.f64")
	pstr := filepath.Join(dir, "data.pstr")
	data := make([]float64, 6*6)
	for i := range data {
		data[i] = float64(i) * 1e-8
	}
	writeRaw(t, orig, data)
	comp, err := pastri.Compress(data, pastri.NewOptions(6, 6, 1e-10))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pstr, comp, 0o644); err != nil {
		t.Fatal(err)
	}
	// Bound defaults to the stream's recorded error bound.
	if err := run(orig, "", pstr, 0, 0); err != nil {
		t.Fatal(err)
	}
}

// TestZCheckFlightReplay drives -flight against recorder-written
// artifacts: a genuine bound break must exit non-zero, an anomaly whose
// bound held (slack-floor injection) must pass, and a decode-side
// artifact with no captured data must be reported as unreplayable.
func TestZCheckFlightReplay(t *testing.T) {
	eb := 1e-10
	mkArtifact := func(dir string, cfg pastri.FlightConfig, emit func(col *pastri.Collector)) string {
		t.Helper()
		cfg.Dir = dir
		col := pastri.NewCollector()
		fr := pastri.NewFlightRecorder(cfg)
		col.AttachFlight(fr)
		emit(col)
		paths := fr.ArtifactPaths()
		if len(paths) != 1 {
			t.Fatalf("artifacts = %v, want exactly one", paths)
		}
		return paths[0]
	}

	violation := mkArtifact(t.TempDir(), pastri.FlightConfig{ErrorBound: eb},
		func(col *pastri.Collector) {
			col.RecordBlock(pastri.TraceRecord{BytesIn: 32, BytesOut: 8, EBSlack: -2 * eb},
				[]float64{1, 2, 3, 4}, []float64{1, 2, 3 + 3*eb, 4})
		})
	if err := runFlight(violation, 0); err == nil {
		t.Error("genuine bound break replayed clean")
	}

	injected := mkArtifact(t.TempDir(), pastri.FlightConfig{ErrorBound: eb, SlackFloor: 1},
		func(col *pastri.Collector) {
			col.RecordBlock(pastri.TraceRecord{BytesIn: 32, BytesOut: 8, EBSlack: eb / 2},
				[]float64{1, 2, 3, 4}, []float64{1, 2, 3, 4})
		})
	if err := runFlight(injected, 0); err != nil {
		t.Errorf("slack-floor anomaly (bound held) failed replay: %v", err)
	}

	decodeSide := mkArtifact(t.TempDir(), pastri.FlightConfig{Warmup: 2},
		func(col *pastri.Collector) {
			col.RecordDecodedBlock(10, 80)
			col.RecordDecodedBlock(10, 80)
			col.RecordDecodedBlock(79, 80)
		})
	if err := runFlight(decodeSide, 0); err != nil {
		t.Errorf("decode-side artifact must replay as a no-op: %v", err)
	}

	if err := runFlight(filepath.Join(t.TempDir(), "absent.json"), 0); err == nil {
		t.Error("missing artifact accepted")
	}
}

func TestZCheckValidation(t *testing.T) {
	dir := t.TempDir()
	orig := filepath.Join(dir, "o.f64")
	writeRaw(t, orig, []float64{1})
	if err := run("", "x", "", 0, 0); err == nil {
		t.Error("missing -orig accepted")
	}
	if err := run(orig, "", "", 0, 0); err == nil {
		t.Error("neither -recon nor -pstr rejected")
	}
	if err := run(orig, "a", "b", 0, 0); err == nil {
		t.Error("both -recon and -pstr accepted")
	}
	bad := filepath.Join(dir, "bad.f64")
	if err := os.WriteFile(bad, []byte("123"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(orig, bad, "", 0, 0); err == nil {
		t.Error("non-multiple-of-8 file accepted")
	}
}
