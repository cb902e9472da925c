package eri

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/basis"
	"repro/internal/core"
)

// streamFixture builds a small set of prepared p-shells and the full
// canonical quartet list over them.
func streamFixture(nShells, l int, seed int64) ([]*PreparedShell, []Quartet) {
	rng := rand.New(rand.NewSource(seed))
	prepared := make([]*PreparedShell, nShells)
	for i := range prepared {
		prepared[i] = Prepare(basis.Shell{
			Center: basis.Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
			L:      l,
			Exps:   []float64{0.5 + rng.Float64()},
			Coefs:  []float64{1},
		})
	}
	return prepared, EnumerateQuartets(nShells)
}

// TestStreamBlocksMatchesCompute: streaming the quartets through
// StreamBlocks into a ParallelStreamWriter must produce exactly the
// bytes of serially stream-writing the batch ComputeQuartets dataset —
// the generate-and-compress pipeline has no seams. (Streams carry the
// block-count sentinel instead of batch Compress's materialized count,
// so the byte oracle is the serial StreamWriter; the decode check
// closes the loop back to the batch data.)
func TestStreamBlocksMatchesCompute(t *testing.T) {
	const l = 1
	prepared, quartets := streamFixture(3, l, 11)

	ds, err := ComputeQuartets("stream-fixture", prepared, quartets, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Defaults(ds.NumSB, ds.SBSize, 1e-10)
	var ref bytes.Buffer
	rw, err := core.NewStreamWriter(&ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < ds.Blocks; b++ {
		if err := rw.WriteBlock(ds.Block(b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	batch := ref.Bytes()

	dec, err := core.Decompress(batch, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range ds.Data {
		if d := x - dec[i]; d > 1e-10 || d < -1e-10 {
			t.Fatalf("decoded stream violates EB at %d: %v vs %v", i, dec[i], x)
		}
	}

	for _, workers := range []int{1, 2, 4, 7} {
		var buf bytes.Buffer
		sw, err := core.NewParallelStreamWriter(&buf, cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		order := make([]int, 0, len(quartets))
		err = StreamBlocks(prepared, quartets, workers, func(b int, block []float64) error {
			order = append(order, b)
			return sw.WriteBlock(block)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		for i, b := range order {
			if i != b {
				t.Fatalf("workers=%d: emit order broken: position %d got block %d", workers, i, b)
			}
		}
		if len(order) != len(quartets) {
			t.Fatalf("workers=%d: emitted %d blocks, want %d", workers, len(order), len(quartets))
		}
		if !bytes.Equal(buf.Bytes(), batch) {
			t.Fatalf("workers=%d: streamed compressed bytes differ from batch (%d vs %d bytes)",
				workers, buf.Len(), len(batch))
		}
	}
}

// TestStreamBlocksEmitError: an emit failure cancels the stream
// promptly and surfaces the error.
func TestStreamBlocksEmitError(t *testing.T) {
	prepared, quartets := streamFixture(3, 1, 12)
	wantErr := fmt.Errorf("sink full")
	calls := 0
	err := StreamBlocks(prepared, quartets, 4, func(b int, block []float64) error {
		calls++
		if b == 2 {
			return wantErr
		}
		return nil
	})
	if err != wantErr {
		t.Fatalf("got err %v, want %v", err, wantErr)
	}
	if calls != 3 {
		t.Fatalf("emit called %d times, want 3 (blocks 0..2 in order)", calls)
	}
}

// TestStreamBlocksEmpty mirrors ComputeQuartets's contract.
func TestStreamBlocksEmpty(t *testing.T) {
	if err := StreamBlocks(nil, nil, 4, func(int, []float64) error { return nil }); err == nil {
		t.Fatal("want error for empty input")
	}
}
