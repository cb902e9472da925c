package profring

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func openRing(t *testing.T, cfg Config) *Ring {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDisabledRing(t *testing.T) {
	r, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r != nil {
		t.Fatal("empty Dir should disable the ring")
	}
	// All methods must be nil-safe.
	if _, err := r.CaptureCPU(ReasonForced, "t", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CaptureHeap(ReasonForced, "t", ""); err != nil {
		t.Fatal(err)
	}
	r.Tick(time.Now())
	if got := r.Entries(); got != nil {
		t.Fatal("nil ring has entries")
	}
	if got := r.Stats(); got != (Stats{}) {
		t.Fatalf("nil ring stats = %+v", got)
	}
	if r.Dir() != "" {
		t.Fatal("nil ring dir")
	}
}

func TestCaptureHeapWritesPairAndMeta(t *testing.T) {
	r := openRing(t, Config{})
	e, err := r.CaptureHeap(ReasonForced, "acme", "trace-123")
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != KindHeap || e.Reason != ReasonForced || e.Tenant != "acme" || e.TraceID != "trace-123" {
		t.Fatalf("entry = %+v", e)
	}
	if e.SizeBytes <= 0 || e.HeapAlloc == 0 {
		t.Fatalf("entry sizes = %+v", e)
	}

	// The profile must be a gzip stream (the runtime's protobuf output).
	data, err := os.ReadFile(e.Path)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	if _, err := io.ReadAll(zr); err != nil {
		t.Fatalf("gunzip: %v", err)
	}

	if _, err := os.Stat(metaPath(e.Path)); err != nil {
		t.Fatalf("missing sidecar: %v", err)
	}
	st := r.Stats()
	if st.Captures != 1 || st.Entries != 1 || st.Bytes != e.SizeBytes {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCaptureCPU(t *testing.T) {
	r := openRing(t, Config{CPUDuration: 20 * time.Millisecond})
	e, err := r.CaptureCPU(ReasonSLOBurn, "tiny", "t-1")
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != KindCPU || e.SizeBytes <= 0 {
		t.Fatalf("entry = %+v", e)
	}
	seq, ok := ParseSeq(e.Path)
	if !ok || seq != e.Seq {
		t.Fatalf("ParseSeq(%q) = %d %v", e.Path, seq, ok)
	}
}

func TestCPUBusySkips(t *testing.T) {
	r := openRing(t, Config{CPUDuration: 200 * time.Millisecond})
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		_, err := r.CaptureCPU(ReasonPeriodic, "", "")
		done <- err
	}()
	<-started
	// Wait for the first capture to actually claim the CPU profiler.
	deadline := time.Now().Add(time.Second)
	for !cpuBusy.Load() {
		if time.Now().After(deadline) {
			t.Fatal("first capture never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := r.CaptureCPU(ReasonForced, "", ""); err != ErrBusy {
		t.Fatalf("concurrent capture err = %v, want ErrBusy", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Skipped != 1 || st.Captures != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPruneKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	r := openRing(t, Config{Dir: dir, MaxProfiles: 3})
	for i := 0; i < 5; i++ {
		if _, err := r.CaptureHeap(ReasonPeriodic, "", ""); err != nil {
			t.Fatal(err)
		}
	}
	entries := r.Entries()
	if len(entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(entries))
	}
	if entries[0].Seq != 2 || entries[2].Seq != 4 {
		t.Fatalf("kept seqs %d..%d, want 2..4", entries[0].Seq, entries[2].Seq)
	}
	if st := r.Stats(); st.Pruned != 2 {
		t.Fatalf("pruned = %d, want 2", st.Pruned)
	}
	// Only the retained file pairs remain on disk.
	files, err := filepath.Glob(filepath.Join(dir, "*.pb.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Fatalf("on-disk profiles = %d, want 3", len(files))
	}
}

func TestReopenAdoptsExisting(t *testing.T) {
	dir := t.TempDir()
	r := openRing(t, Config{Dir: dir})
	e1, err := r.CaptureHeap(ReasonPeriodic, "acme", "")
	if err != nil {
		t.Fatal(err)
	}

	r2 := openRing(t, Config{Dir: dir})
	entries := r2.Entries()
	if len(entries) != 1 || entries[0].Seq != e1.Seq || entries[0].Tenant != "acme" {
		t.Fatalf("adopted entries = %+v", entries)
	}
	// New captures continue the sequence.
	e2, err := r2.CaptureHeap(ReasonPeriodic, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if e2.Seq != e1.Seq+1 {
		t.Fatalf("seq = %d, want %d", e2.Seq, e1.Seq+1)
	}
}

func TestTickPeriodicCapture(t *testing.T) {
	r := openRing(t, Config{Period: time.Hour, CPUDuration: 10 * time.Millisecond})
	base := time.Unix(1000, 0)
	r.Tick(base) // first tick always captures
	waitFor(t, func() bool { return r.Stats().Captures >= 1 })
	r.Tick(base.Add(time.Minute)) // within the period: no capture
	r.Tick(base.Add(2 * time.Hour))
	waitFor(t, func() bool { return r.Stats().Captures >= 3 }) // 2 heap + ≥1 cpu

	var heap, cpu int
	for _, e := range r.Entries() {
		switch e.Kind {
		case KindHeap:
			heap++
		case KindCPU:
			cpu++
		}
	}
	if heap != 2 {
		t.Fatalf("heap captures = %d, want 2", heap)
	}
	if cpu < 1 {
		t.Fatalf("cpu captures = %d, want >= 1", cpu)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never met")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
