package core

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestStreamWriterReaderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cfg := Defaults(6, 36, 1e-10)
	const nblocks = 15
	blocks := make([][]float64, nblocks)
	for b := range blocks {
		amp := math.Pow(10, float64(rng.Intn(8)-10))
		blocks[b] = patternedBlock(rng, 6, 36, amp, amp*1e-4, 0.01)
	}

	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, blk := range blocks {
		if err := sw.WriteBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if sw.Blocks() != nblocks {
		t.Fatalf("Blocks() = %d", sw.Blocks())
	}
	if err := sw.Close(); err != nil {
		t.Fatal("second Close should be a no-op")
	}
	if err := sw.WriteBlock(blocks[0]); err == nil {
		t.Fatal("write after Close accepted")
	}

	// Sequential read back.
	sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Config().BlockSize() != cfg.BlockSize() {
		t.Fatalf("config mismatch")
	}
	dst := make([]float64, cfg.BlockSize())
	for b := 0; b < nblocks; b++ {
		if err := sr.ReadBlock(dst); err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
		for i, v := range dst {
			if math.Abs(v-blocks[b][i]) > cfg.ErrorBound*(1+1e-9) {
				t.Fatalf("block %d point %d out of bound", b, i)
			}
		}
	}
	if err := sr.ReadBlock(dst); err != io.EOF {
		t.Fatalf("expected io.EOF, got %v", err)
	}
	if sr.BlocksRead() != nblocks {
		t.Fatalf("BlocksRead = %d", sr.BlocksRead())
	}

	// The whole streamed file also decompresses via the batch API...
	flat, err := Decompress(buf.Bytes(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(flat) != nblocks*cfg.BlockSize() {
		t.Fatalf("batch decompress length %d", len(flat))
	}
	// ...and supports random access.
	br, err := NewBlockReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if br.NumBlocks() != nblocks {
		t.Fatalf("BlockReader sees %d blocks", br.NumBlocks())
	}
	if err := br.ReadBlock(nblocks-1, dst); err != nil {
		t.Fatal(err)
	}
}

func TestStreamReaderOfBatchStream(t *testing.T) {
	// A batch-compressed stream must be readable via StreamReader too.
	cfg := Defaults(3, 4, 1e-9)
	data := []float64{
		1e-6, 2e-6, -1e-6, 0, 5e-7, 5e-7, -5e-7, 0, 1e-7, 0, 0, 0,
		2e-6, 4e-6, -2e-6, 0, 1e-6, 1e-6, -1e-6, 0, 2e-7, 0, 0, 0,
	}
	comp, err := Compress(data, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := NewStreamReader(bytes.NewReader(comp))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 12)
	for b := 0; b < 2; b++ {
		if err := sr.ReadBlock(dst); err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
	}
	if err := sr.ReadBlock(dst); err != io.EOF {
		t.Fatalf("expected io.EOF, got %v", err)
	}
}

func TestStreamReaderErrors(t *testing.T) {
	if _, err := NewStreamReader(strings.NewReader("short")); err == nil {
		t.Error("short header accepted")
	}
	cfg := Defaults(2, 2, 1e-10)
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteBlock(make([]float64, 4)); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteBlock(make([]float64, 3)); err == nil {
		t.Error("wrong block size accepted")
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	// Truncated payload.
	trunc := buf.Bytes()[:buf.Len()-1]
	sr, err := NewStreamReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.ReadBlock(make([]float64, 4)); err == nil {
		t.Error("truncated payload accepted")
	}
	// Invalid config in writer.
	if _, err := NewStreamWriter(io.Discard, Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}
