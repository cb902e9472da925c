package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/encoding"
	"repro/internal/pattern"
)

// eriLikeBlocks synthesizes nblocks ERI-shaped blocks for cfg: each
// sub-block is a shared smooth pattern times a decaying scale, plus
// noise around the quantization scale so all four block types occur.
func eriLikeBlocks(cfg Config, nblocks int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, nblocks*cfg.BlockSize())
	for b := 0; b < nblocks; b++ {
		amp := math.Pow(10, -2*rng.Float64()) // block amplitude 1e-2..1
		for s := 0; s < cfg.NumSB; s++ {
			scale := amp * math.Pow(0.7, float64(s)) * (1 - 2*float64(s%2))
			base := b*cfg.BlockSize() + s*cfg.SBSize
			for i := 0; i < cfg.SBSize; i++ {
				p := math.Sin(float64(i)*0.7+float64(b)) * math.Exp(-0.05*float64(i))
				noise := (rng.Float64() - 0.5) * cfg.ErrorBound * float64(rng.Intn(200))
				data[base+i] = scale*p + noise
			}
		}
	}
	return data
}

func TestCompressWorkersByteIdentical(t *testing.T) {
	cfg := Defaults(6, 10, 1e-10)
	data := eriLikeBlocks(cfg, 37, 1)
	serial, err := CompressWorkers(data, cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 2, 3, 4, 7, 16} {
		par, err := CompressWorkers(data, cfg, n, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", n, err)
		}
		if !bytes.Equal(serial, par) {
			t.Fatalf("workers=%d: output differs from serial (%d vs %d bytes)", n, len(serial), len(par))
		}
	}
}

func TestCompressWorkersStats(t *testing.T) {
	cfg := Defaults(4, 9, 1e-9)
	data := eriLikeBlocks(cfg, 25, 2)
	want := NewStats()
	if _, err := CompressWorkers(data, cfg, 1, want); err != nil {
		t.Fatal(err)
	}
	got := NewStats()
	if _, err := CompressWorkers(data, cfg, 4, got); err != nil {
		t.Fatal(err)
	}
	if want.Blocks != got.Blocks || want.TypeCount != got.TypeCount ||
		want.PayloadBits() != got.PayloadBits() || want.SparseBlocks != got.SparseBlocks {
		t.Fatalf("parallel stats diverge: serial %+v parallel %+v", want, got)
	}
}

// streamed returns comp, a Compress output, with the header's block
// count replaced by the streaming sentinel: the bytes a StreamWriter
// must produce for the same blocks. TestGoldenStreams pins Compress, so
// this oracle is pinned too.
func streamed(comp []byte) []byte {
	out := append([]byte(nil), comp...)
	binary.LittleEndian.PutUint64(out[headerSize-8:headerSize], streamingCount)
	return out
}

// writeStream feeds data block by block through a StreamWriter, reusing
// one block buffer (the writer must copy), and returns the stream and
// the writer's final block count.
func writeStream(t *testing.T, cfg Config, data []float64) ([]byte, uint64) {
	t.Helper()
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bs := cfg.BlockSize()
	block := make([]float64, bs)
	for b := 0; b*bs < len(data); b++ {
		copy(block, data[b*bs:(b+1)*bs])
		if err := sw.WriteBlock(block); err != nil {
			t.Fatalf("workers=%d block %d: %v", cfg.Workers, b, err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("workers=%d: %v", cfg.Workers, err)
	}
	return buf.Bytes(), sw.Blocks()
}

func TestStreamWriterMatchesCompress(t *testing.T) {
	cfg := Defaults(5, 8, 1e-8)
	data := eriLikeBlocks(cfg, 41, 3)
	comp, err := Compress(data, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := streamed(comp)
	for _, workers := range []int{1, 2, 4, 7} {
		cfg.Workers = workers
		got, blocks := writeStream(t, cfg, data)
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: stream differs from Compress's (%d vs %d bytes)",
				workers, len(got), len(want))
		}
		if blocks != 41 {
			t.Fatalf("workers=%d: Blocks() = %d, want 41", workers, blocks)
		}
	}
}

func TestStreamWriterRoundTrip(t *testing.T) {
	cfg := Defaults(4, 6, 1e-11)
	cfg.Workers = 3
	data := eriLikeBlocks(cfg, 19, 4)
	stream, _ := writeStream(t, cfg, data)
	out, err := Decompress(stream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(data) {
		t.Fatalf("decompressed %d values, want %d", len(out), len(data))
	}
	for i := range data {
		if math.Abs(out[i]-data[i]) > cfg.ErrorBound {
			t.Fatalf("value %d: |%g - %g| > EB %g", i, data[i], out[i], cfg.ErrorBound)
		}
	}
}

func TestStreamWriterEmpty(t *testing.T) {
	cfg := Defaults(3, 3, 1e-6)
	cfg.Workers = 4
	var buf bytes.Buffer
	pw, err := NewStreamWriter(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	out, err := Decompress(buf.Bytes(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("empty stream decoded %d values", len(out))
	}
	if err := pw.WriteBlock(make([]float64, cfg.BlockSize())); err == nil {
		t.Fatal("WriteBlock after Close did not error")
	}
}

func TestStreamWriterBadBlockLength(t *testing.T) {
	cfg := Defaults(3, 3, 1e-6)
	cfg.Workers = 2
	var buf bytes.Buffer
	pw, err := NewStreamWriter(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pw.WriteBlock(make([]float64, cfg.BlockSize()+1)); err == nil {
		t.Fatal("oversized block accepted")
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamWriterEncodeError drives the pipeline into an encoder
// failure (data range too wide for the error bound) and checks the
// error surfaces on Close without deadlock or panic.
func TestStreamWriterEncodeError(t *testing.T) {
	cfg := Defaults(2, 4, 1e-300)
	cfg.Workers = 3
	var buf bytes.Buffer
	pw, err := NewStreamWriter(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := []float64{1e300, -1e300, 1e299, 2e299, 1, 2, 3, 4}
	var writeErr error
	for i := 0; i < 50 && writeErr == nil; i++ {
		writeErr = pw.WriteBlock(bad)
	}
	closeErr := pw.Close()
	if writeErr == nil && closeErr == nil {
		t.Fatal("encoder error never surfaced")
	}
}

// TestPropertyRoundTrip is the randomized-config battery: for options
// drawn across block geometries, sub-block splits, metrics, encodings
// and error bounds spanning 1e-3..1e-12, the reconstruction must honor
// the absolute error bound and every worker count must produce the
// exact bytes of the serial path.
func TestPropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	metrics := []pattern.Metric{pattern.ER, pattern.FR, pattern.AR, pattern.AAR, pattern.IS}
	encodings := []encoding.Method{encoding.Tree5, encoding.Fixed, encoding.Tree1,
		encoding.Tree2, encoding.Tree3, encoding.Tree4}
	iters := 40
	if testing.Short() {
		iters = 10
	}
	for it := 0; it < iters; it++ {
		cfg := Config{
			NumSB:         1 + rng.Intn(12),
			SBSize:        1 + rng.Intn(24),
			ErrorBound:    math.Pow(10, -3-9*rng.Float64()), // 1e-3 .. 1e-12
			Metric:        metrics[rng.Intn(len(metrics))],
			Encoding:      encodings[rng.Intn(len(encodings))],
			DisableSparse: rng.Intn(4) == 0,
		}
		nblocks := 1 + rng.Intn(12)
		data := eriLikeBlocks(cfg, nblocks, int64(1000+it))
		serial, err := CompressWorkers(data, cfg, 1, nil)
		if err != nil {
			t.Fatalf("iter %d cfg %+v: %v", it, cfg, err)
		}
		out, err := Decompress(serial, 1+rng.Intn(4))
		if err != nil {
			t.Fatalf("iter %d cfg %+v: decompress: %v", it, cfg, err)
		}
		for i := range data {
			if math.Abs(out[i]-data[i]) > cfg.ErrorBound {
				t.Fatalf("iter %d cfg %+v: value %d: |err| %g > EB %g",
					it, cfg, i, math.Abs(out[i]-data[i]), cfg.ErrorBound)
			}
		}
		for _, n := range []int{2, 4, 7} {
			par, err := CompressWorkers(data, cfg, n, nil)
			if err != nil {
				t.Fatalf("iter %d workers %d: %v", it, n, err)
			}
			if !bytes.Equal(serial, par) {
				t.Fatalf("iter %d cfg %+v: workers=%d output differs from serial", it, cfg, n)
			}
		}
	}
}
