package core

import (
	"math/rand"
	"testing"

	"repro/internal/bitio"
	"repro/internal/encoding"
	"repro/internal/pattern"
	"repro/internal/telemetry"
)

// Allocation-regression tests for the block kernels. The per-block hot
// path — analyze/quantize/encode on the compress side, DecodeBlock on
// the decompress side — must not touch the heap once the scratch arenas
// and pools are warm. All tests skip under the race detector, whose
// instrumentation allocates.

func allocTestConfig() Config {
	return Config{
		NumSB: 8, SBSize: 32, ErrorBound: 1e-10,
		Metric: pattern.ER, Encoding: encoding.Tree5,
	}
}

func allocTestData(cfg Config, nblocks int) []float64 {
	rng := rand.New(rand.NewSource(99))
	data := make([]float64, 0, nblocks*cfg.BlockSize())
	for b := 0; b < nblocks; b++ {
		data = append(data, patternedBlock(rng, cfg.NumSB, cfg.SBSize, 1e-7, 1e-9, 0.02)...)
	}
	return data
}

// TestEncodeBlockAllocs: a warm BlockEncoder must encode without any
// heap allocation — on the default path, with a live collector (the
// per-block trace record pastrid pays on every upload), and with a
// flight recorder attached, which makes the encoder rebuild each
// block's reconstruction into its capture arena.
func TestEncodeBlockAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	for _, tc := range []struct {
		name string
		col  func() *telemetry.Collector
	}{
		{"default", func() *telemetry.Collector { return nil }},
		{"live collector", func() *telemetry.Collector { return telemetry.New(telemetry.DefaultTraceDepth) }},
		{"collector + flight recorder", func() *telemetry.Collector {
			col := telemetry.New(telemetry.DefaultTraceDepth)
			col.AttachFlight(telemetry.NewFlightRecorder(telemetry.FlightConfig{}))
			return col
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := allocTestConfig()
			cfg.Collector = tc.col()
			block := allocTestData(cfg, 1)
			enc, err := NewBlockEncoder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			w := bitio.NewWriter(cfg.BlockSize())
			allocs := testing.AllocsPerRun(100, func() {
				w.Reset()
				if err := enc.EncodeBlock(w, block); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("EncodeBlock (%s) allocates %v times per block, want 0", tc.name, allocs)
			}
		})
	}
}

// TestDecodeBlockAllocs: a warm BlockDecoder must decode without any
// heap allocation, and so must DecodeBlockBytes once the decoder pool
// is warm.
func TestDecodeBlockAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	cfg := allocTestConfig()
	block := allocTestData(cfg, 1)
	enc, err := NewBlockEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := bitio.NewWriter(cfg.BlockSize())
	if err := enc.EncodeBlock(w, block); err != nil {
		t.Fatal(err)
	}
	payload := w.Bytes()
	dec, err := NewBlockDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := bitio.NewReader(nil)
	dst := make([]float64, cfg.BlockSize())
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(payload)
		if err := dec.DecodeBlock(r, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeBlock allocates %v times per block, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if err := DecodeBlockBytes(cfg, payload, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeBlockBytes allocates %v times per block, want 0", allocs)
	}
}

// TestCompressWorkersAllocs: a one-shot CompressWorkers call pays a
// fixed per-call cost (output stream, channels, goroutines) but must
// not allocate per block once the encoder and payload pools are warm.
// The marginal allocations between an n-block and a 2n-block call
// isolate the steady-state per-block cost.
func TestCompressWorkersAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	cfg := allocTestConfig()
	const n = 4
	small := allocTestData(cfg, n)
	large := allocTestData(cfg, 2*n)

	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"workers4", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(data []float64) float64 {
				return testing.AllocsPerRun(50, func() {
					if _, err := CompressWorkers(data, cfg, tc.workers, nil); err != nil {
						t.Fatal(err)
					}
				})
			}
			aSmall := run(small)
			aLarge := run(large)
			perBlock := (aLarge - aSmall) / float64(n)
			// The two calls differ only in block count, so any difference
			// is per-block heap traffic. Allow sub-1 noise from pool
			// rebalancing; steady state must round to 0 allocs per block.
			if perBlock >= 1 {
				t.Errorf("%s: %v allocs per block (small call %v, large call %v), want 0",
					tc.name, perBlock, aSmall, aLarge)
			}
		})
	}
}
