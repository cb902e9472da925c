package core

import (
	"bytes"
	"context"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestStageLabelsPropagate proves the stream writer's goroutines run
// under the request's pprof label set plus their own stage label:
// goroutine labels are what the CPU profiler samples, so a worker that
// carries tenant+route+stage attributes its encode time correctly. It
// reads the labels of the live goroutines from the goroutine profile
// while the workers sit idle between blocks.
func TestStageLabelsPropagate(t *testing.T) {
	const workers = 2
	cfg := Defaults(4, 16, 1e-10)
	cfg.Workers = workers
	block := make([]float64, cfg.BlockSize())
	for i := range block {
		block[i] = float64(i%7) * 1e-8
	}
	const (
		encode    = `{"route":"upload", "stage":"encode", "tenant":"labelprobe"}`
		sequencer = `{"route":"upload", "stage":"sequencer", "tenant":"labelprobe"}`
	)

	pprof.Do(context.Background(), pprof.Labels("tenant", "labelprobe", "route", "upload"), func(ctx context.Context) {
		cfg.ProfileCtx = ctx
		var buf bytes.Buffer
		w, err := NewStreamWriter(&buf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := w.WriteBlock(block); err != nil {
				t.Fatal(err)
			}
		}
		// Poll until every block is written and the pool is idle.
		deadline := time.Now().Add(5 * time.Second)
		for {
			got := labelledGoroutines(t)
			if got[encode] == workers && got[sequencer] == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("goroutines per label set = %v; want %d with %s and 1 with %s",
					got, workers, encode, sequencer)
			}
			time.Sleep(time.Millisecond)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// labelledGoroutines counts the live goroutines per pprof label set,
// read from the goroutine profile's text form, where each distinct
// stack and label set is one "N @ pc..." line followed by a
// "# labels: {...}" line.
func labelledGoroutines(t *testing.T) map[string]int {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	n := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[1] == "@" {
			n, _ = strconv.Atoi(f[0])
		} else if labels, ok := strings.CutPrefix(line, "# labels: "); ok {
			counts[labels] += n
		}
	}
	return counts
}

// TestWithStageLabelNilCtx pins the disabled path of Observer.Do: no
// profile context, no pprof machinery, and crucially no allocations —
// the CLI pipelines rely on the zero-cost default.
func TestWithStageLabelNilCtx(t *testing.T) {
	var obs telemetry.Observer
	ran := false
	obs.Do(profStageSequencer, func() { ran = true })
	if !ran {
		t.Fatal("f not called")
	}
	allocs := testing.AllocsPerRun(100, func() {
		obs.Do(profStageEncode, func() {})
	})
	if allocs != 0 {
		t.Fatalf("nil-ctx Observer.Do allocates %v/op, want 0", allocs)
	}
}

// TestParallelOutputUnchangedWithProfileCtx guards the byte-identity
// contract: labeling goroutines must not perturb the stream.
func TestParallelOutputUnchangedWithProfileCtx(t *testing.T) {
	cfg := Defaults(4, 16, 1e-10)
	block := make([]float64, cfg.BlockSize())
	for i := range block {
		block[i] = float64(i%11) * 1e-9
	}
	run := func(ctx context.Context) []byte {
		c := cfg
		c.Workers = 3
		c.ProfileCtx = ctx
		var buf bytes.Buffer
		w, err := NewStreamWriter(&buf, c)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if err := w.WriteBlock(block); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	plain := run(nil)
	labeled := run(context.Background())
	if !bytes.Equal(plain, labeled) {
		t.Fatal("ProfileCtx changed the output stream")
	}
}
