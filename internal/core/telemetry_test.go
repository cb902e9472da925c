package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// snapshotFor compresses data with the given worker count under a
// fresh collector and returns the snapshot.
func snapshotFor(t *testing.T, cfg Config, data []float64, workers int) *telemetry.Snapshot {
	t.Helper()
	col := telemetry.New(-1) // no trace ring: records arrive in completion order
	cfg.Collector = col
	if _, err := CompressWorkers(data, cfg, workers, nil); err != nil {
		t.Fatal(err)
	}
	return col.Snapshot()
}

// TestTelemetryExactUnderConcurrency pins the collector's contract that
// counters and histograms are exact — not sampled, not approximate —
// regardless of how blocks are scheduled across workers. Every
// schedule-independent field of a parallel run's snapshot must equal
// the serial run's, on every golden fixture, which the race detector
// additionally turns into a concurrency-soundness check of the atomics.
func TestTelemetryExactUnderConcurrency(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			data := gc.data(gc.cfg)
			want := snapshotFor(t, gc.cfg, data, 1)
			if want.Blocks == 0 {
				t.Fatal("serial run recorded no blocks")
			}
			if want.BytesIn != uint64(len(data)*8) {
				t.Fatalf("bytes_in = %d, want %d", want.BytesIn, len(data)*8)
			}
			for _, workers := range []int{2, 4, 8} {
				got := snapshotFor(t, gc.cfg, data, workers)
				if got.Blocks != want.Blocks ||
					got.BytesIn != want.BytesIn ||
					got.BytesOutPayload != want.BytesOutPayload ||
					got.BytesOutFraming != want.BytesOutFraming ||
					got.BytesOutTotal != want.BytesOutTotal {
					t.Errorf("workers=%d: totals diverge: got %+v want %+v",
						workers, got, want)
				}
				if !reflect.DeepEqual(got.Encodings, want.Encodings) {
					t.Errorf("workers=%d: encodings %v, want %v",
						workers, got.Encodings, want.Encodings)
				}
				if !reflect.DeepEqual(got.BlockBytes, want.BlockBytes) {
					t.Errorf("workers=%d: block-bytes histogram diverges", workers)
				}
				// Stage counts are schedule-independent for the per-block
				// stages; durations and the split/wait stages are not.
				for _, stage := range []string{"pattern_fit", "quantize", "encode"} {
					if got.Stages[stage].Count != want.Stages[stage].Count {
						t.Errorf("workers=%d: stage %s count %d, want %d",
							workers, stage, got.Stages[stage].Count, want.Stages[stage].Count)
					}
				}
			}
		})
	}
}

// TestTelemetryDecodeCounters checks the decode-side counters match the
// encode-side block accounting for both serial and parallel decode.
func TestTelemetryDecodeCounters(t *testing.T) {
	gc := goldenCases()[0]
	data := gc.data(gc.cfg)
	comp, err := Compress(data, gc.cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			col := telemetry.New(0)
			dec, err := DecompressObserved(comp, workers, telemetry.Observer{Collector: col})
			if err != nil {
				t.Fatal(err)
			}
			snap := col.Snapshot()
			if snap.BlocksDecoded != uint64(len(data)/gc.cfg.BlockSize()) {
				t.Fatalf("blocks_decoded = %d", snap.BlocksDecoded)
			}
			if snap.DecodedBytesOut != uint64(len(dec)*8) {
				t.Fatalf("decoded_bytes_out = %d, want %d", snap.DecodedBytesOut, len(dec)*8)
			}
			if snap.Stages["decode"].Count != snap.BlocksDecoded {
				t.Fatalf("decode stage count %d != blocks %d",
					snap.Stages["decode"].Count, snap.BlocksDecoded)
			}
		})
	}
}

// TestTelemetryTraceCompleteness: with a ring at least as deep as the
// block count, every block appears exactly once with a unique id, and
// per-record payload bytes sum to the payload counter.
func TestTelemetryTraceCompleteness(t *testing.T) {
	gc := goldenCases()[0]
	data := gc.data(gc.cfg)
	nblocks := len(data) / gc.cfg.BlockSize()
	col := telemetry.New(telemetry.DefaultTraceDepth)
	cfg := gc.cfg
	cfg.Collector = col
	if _, err := CompressWorkers(data, cfg, 4, nil); err != nil {
		t.Fatal(err)
	}
	snap := col.Snapshot()
	if len(snap.Traces) != nblocks {
		t.Fatalf("trace holds %d records, want %d", len(snap.Traces), nblocks)
	}
	seen := make(map[uint64]bool)
	var payload uint64
	for _, tr := range snap.Traces {
		if seen[tr.Block] {
			t.Fatalf("duplicate trace id %d", tr.Block)
		}
		seen[tr.Block] = true
		if tr.Block >= uint64(nblocks) {
			t.Fatalf("trace id %d out of range", tr.Block)
		}
		payload += uint64(tr.BytesOut)
		if tr.EBSlack < 0 || tr.EBSlack > cfg.ErrorBound {
			t.Errorf("block %d eb_slack %g outside [0, %g]", tr.Block, tr.EBSlack, cfg.ErrorBound)
		}
	}
	if payload != snap.BytesOutPayload {
		t.Fatalf("trace payload bytes %d != counter %d", payload, snap.BytesOutPayload)
	}
}

// TestBytesOutTotalMatchesStreamSize holds the snapshot to its promise
// that BytesOutTotal (payload + framing) is exactly the size of the
// produced stream, for the one-shot compressor and the stream writer at
// every worker count.
func TestBytesOutTotalMatchesStreamSize(t *testing.T) {
	cfg := Defaults(6, 6, 1e-10)
	data := eriLikeBlocks(cfg, 20, 5)
	for _, workers := range []int{1, 2, 4, 8} {
		cfg.Workers = workers
		for _, tc := range []struct {
			name     string
			compress func(Config) []byte
		}{
			{"Compress", func(c Config) []byte {
				comp, err := Compress(data, c, nil)
				if err != nil {
					t.Fatal(err)
				}
				return comp
			}},
			{"StreamWriter", func(c Config) []byte {
				stream, _ := writeStream(t, c, data)
				return stream
			}},
		} {
			col := telemetry.New(-1)
			c := cfg
			c.Collector = col
			stream := tc.compress(c)
			if snap := col.Snapshot(); snap.BytesOutTotal != uint64(len(stream)) {
				t.Errorf("%s workers=%d: bytes_out_total %d (payload %d + framing %d), stream is %d bytes",
					tc.name, workers, snap.BytesOutTotal, snap.BytesOutPayload, snap.BytesOutFraming, len(stream))
			}
		}
	}
}
