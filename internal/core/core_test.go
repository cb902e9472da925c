package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitio"
	"repro/internal/encoding"
	"repro/internal/pattern"
)

// patternedBlock simulates an ERI shell-quartet block: sub-blocks that
// share one shape up to a scalar, with deviations and a few outliers,
// spanning several orders of magnitude.
func patternedBlock(rng *rand.Rand, numSB, sbSize int, amplitude, noise, outlierFrac float64) []float64 {
	shape := make([]float64, sbSize)
	for i := range shape {
		shape[i] = rng.NormFloat64() * amplitude
	}
	block := make([]float64, numSB*sbSize)
	for s := 0; s < numSB; s++ {
		scale := rng.Float64()*2 - 1
		for i := 0; i < sbSize; i++ {
			v := scale*shape[i] + noise*rng.NormFloat64()
			if rng.Float64() < outlierFrac {
				v += amplitude * rng.NormFloat64() * 0.1
			}
			block[s*sbSize+i] = v
		}
	}
	return block
}

func blockRoundTrip(t *testing.T, block []float64, cfg Config) []float64 {
	t.Helper()
	enc, err := NewBlockEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := bitio.NewWriter(0)
	if err := enc.EncodeBlock(w, block); err != nil {
		t.Fatal(err)
	}
	dec, err := NewBlockDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, len(block))
	if err := dec.DecodeBlock(bitio.NewReader(w.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	return dst
}

func maxAbsErr(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if e := math.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func TestBlockRoundTripErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, eb := range []float64{1e-9, 1e-10, 1e-11} {
		cfg := Defaults(36, 36, eb)
		for trial := 0; trial < 20; trial++ {
			block := patternedBlock(rng, 36, 36, 1e-6, eb/3, 0.01)
			dst := blockRoundTrip(t, block, cfg)
			if e := maxAbsErr(block, dst); e > eb*(1+1e-9) {
				t.Fatalf("EB=%g trial %d: max error %g exceeds bound", eb, trial, e)
			}
		}
	}
}

// The central property: the error bound holds for EVERY metric and EVERY
// encoding on arbitrary data — even data with no pattern at all. The EC
// stage makes the bound structural (Sec. IV-B).
func TestQuickErrorBoundUnconditional(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numSB := rng.Intn(6) + 2
		sbSize := rng.Intn(30) + 2
		eb := math.Pow(10, -float64(rng.Intn(5)+7)) // 1e-7 .. 1e-11
		block := make([]float64, numSB*sbSize)
		for i := range block {
			block[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(10)-8))
		}
		m := pattern.Metrics[rng.Intn(len(pattern.Metrics))]
		e := encoding.Methods[rng.Intn(len(encoding.Methods))]
		cfg := Config{NumSB: numSB, SBSize: sbSize, ErrorBound: eb, Metric: m, Encoding: e}
		enc, err := NewBlockEncoder(cfg)
		if err != nil {
			return false
		}
		w := bitio.NewWriter(0)
		if err := enc.EncodeBlock(w, block); err != nil {
			return false
		}
		dec, err := NewBlockDecoder(cfg)
		if err != nil {
			return false
		}
		dst := make([]float64, len(block))
		if err := dec.DecodeBlock(bitio.NewReader(w.Bytes()), dst); err != nil {
			return false
		}
		return maxAbsErr(block, dst) <= eb*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroBlockIsTiny(t *testing.T) {
	cfg := Defaults(36, 36, 1e-10)
	block := make([]float64, cfg.BlockSize())
	enc, _ := NewBlockEncoder(cfg)
	w := bitio.NewWriter(0)
	if err := enc.EncodeBlock(w, block); err != nil {
		t.Fatal(err)
	}
	// Type-0 zero block: header + PQ(36×1) + SQ(36×1) bits ≈ 84 bits.
	if w.BitLen() > 128 {
		t.Fatalf("zero block took %d bits", w.BitLen())
	}
	dst := blockRoundTrip(t, block, cfg)
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("dst[%d] = %g, want 0", i, v)
		}
	}
}

func TestPatternedBlockCompressesWell(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := Defaults(36, 36, 1e-10)
	block := patternedBlock(rng, 36, 36, 1e-6, 1e-11, 0.002)
	enc, _ := NewBlockEncoder(cfg)
	w := bitio.NewWriter(0)
	if err := enc.EncodeBlock(w, block); err != nil {
		t.Fatal(err)
	}
	rawBits := uint64(len(block) * 64)
	ratio := float64(rawBits) / float64(w.BitLen())
	if ratio < 10 {
		t.Fatalf("patterned block ratio %.1f < 10 (took %d bits for %d points)",
			ratio, w.BitLen(), len(block))
	}
}

func TestConfigValidate(t *testing.T) {
	good := Defaults(6, 6, 1e-10)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{NumSB: 0, SBSize: 6, ErrorBound: 1e-10},
		{NumSB: 6, SBSize: -1, ErrorBound: 1e-10},
		{NumSB: 6, SBSize: 6, ErrorBound: 0},
		{NumSB: 6, SBSize: 6, ErrorBound: math.Inf(1)},
		{NumSB: 6, SBSize: 6, ErrorBound: -1e-10},
		{NumSB: 6, SBSize: 6, ErrorBound: 1e-10, Metric: pattern.Metric(9)},
		{NumSB: 6, SBSize: 6, ErrorBound: 1e-10, Encoding: encoding.Method(9)},
		{NumSB: 6, SBSize: 6, ErrorBound: 1e-10, Workers: -2},
		{NumSB: 1 << 13, SBSize: 1 << 13, ErrorBound: 1e-10},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := Defaults(36, 36, 1e-10)
	const nblocks = 17
	data := make([]float64, 0, nblocks*cfg.BlockSize())
	for b := 0; b < nblocks; b++ {
		amp := math.Pow(10, float64(rng.Intn(8)-10))
		data = append(data, patternedBlock(rng, 36, 36, amp, amp*1e-4, 0.01)...)
	}
	for _, workers := range []int{1, 4, 0} {
		cfg.Workers = workers
		stats := NewStats()
		comp, err := Compress(data, cfg, stats)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if stats.Blocks != nblocks {
			t.Fatalf("workers=%d: stats recorded %d blocks, want %d", workers, stats.Blocks, nblocks)
		}
		got, err := Decompress(comp, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(data) {
			t.Fatalf("workers=%d: got %d points, want %d", workers, len(got), len(data))
		}
		if e := maxAbsErr(data, got); e > cfg.ErrorBound*(1+1e-9) {
			t.Fatalf("workers=%d: max error %g", workers, e)
		}
	}
}

func TestStreamDeterministicAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := Defaults(6, 36, 1e-10)
	data := make([]float64, 0, 12*cfg.BlockSize())
	for b := 0; b < 12; b++ {
		data = append(data, patternedBlock(rng, 6, 36, 1e-7, 1e-12, 0.01)...)
	}
	cfg.Workers = 1
	c1, err := Compress(data, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	c8, err := Compress(data, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(c1) != string(c8) {
		t.Fatal("compressed stream differs between 1 and 8 workers")
	}
}

func TestCompressRejectsPartialBlock(t *testing.T) {
	cfg := Defaults(6, 6, 1e-10)
	if _, err := Compress(make([]float64, 35), cfg, nil); err == nil {
		t.Fatal("expected error for partial block")
	}
}

func TestDecompressCorruptStreams(t *testing.T) {
	cfg := Defaults(6, 6, 1e-10)
	data := make([]float64, cfg.BlockSize()*2)
	for i := range data {
		data[i] = float64(i) * 1e-9
	}
	comp, err := Compress(data, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"short":       comp[:10],
		"bad magic":   append([]byte("XXXX"), comp[4:]...),
		"bad version": append(append([]byte{}, comp[:4]...), append([]byte{99}, comp[5:]...)...),
		"truncated":   comp[:len(comp)-3],
	}
	for name, c := range cases {
		if _, err := Decompress(c, 1); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestParseHeaderRoundTrip(t *testing.T) {
	cfg := Config{NumSB: 60, SBSize: 100, ErrorBound: 1e-11,
		Metric: pattern.AAR, Encoding: encoding.Tree3, DisableSparse: true}
	data := make([]float64, cfg.BlockSize())
	comp, err := Compress(data, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, nblocks, _, err := ParseHeader(comp)
	if err != nil {
		t.Fatal(err)
	}
	if nblocks != 1 {
		t.Fatalf("nblocks = %d", nblocks)
	}
	if got.NumSB != 60 || got.SBSize != 100 || got.ErrorBound != 1e-11 ||
		got.Metric != pattern.AAR || got.Encoding != encoding.Tree3 || !got.DisableSparse {
		t.Fatalf("header round trip mismatch: %+v", got)
	}
}

func TestStatsFractions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := Defaults(36, 36, 1e-10)
	data := make([]float64, 0, 30*cfg.BlockSize())
	for b := 0; b < 30; b++ {
		data = append(data, patternedBlock(rng, 36, 36, 1e-6, 3e-10, 0.05)...)
	}
	stats := NewStats()
	if _, err := Compress(data, cfg, stats); err != nil {
		t.Fatal(err)
	}
	ps, ecq, book := stats.Fractions()
	sum := ps + ecq + book
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("fractions sum to %g", sum)
	}
	if ecq <= 0 || ps <= 0 {
		t.Fatalf("degenerate fractions: ps=%g ecq=%g book=%g", ps, ecq, book)
	}
}

func TestClassifyECbMax(t *testing.T) {
	cases := map[uint]BlockType{1: Type0, 2: Type1, 3: Type2, 6: Type2, 7: Type3, 22: Type3}
	for ecb, want := range cases {
		if got := ClassifyECbMax(ecb); got != want {
			t.Errorf("ClassifyECbMax(%d) = %v, want %v", ecb, got, want)
		}
	}
	for _, bt := range []BlockType{Type0, Type1, Type2, Type3} {
		if bt.String() == "Type ?" {
			t.Errorf("missing String for %d", int(bt))
		}
	}
}

func TestStatsMerge(t *testing.T) {
	a, b := NewStats(), NewStats()
	a.recordDense([]int64{0, 1, -1}, 2, 10, 20, 30, 12, true)
	b.recordDense([]int64{0, 0, 0}, 1, 5, 5, 0, 12, false)
	a.Merge(b)
	if a.Blocks != 2 {
		t.Fatalf("Blocks = %d", a.Blocks)
	}
	if a.TypeCount[Type0] != 1 || a.TypeCount[Type1] != 1 {
		t.Fatalf("TypeCount = %v", a.TypeCount)
	}
	if a.PayloadBits() != 10+20+30+12+5+5+12 {
		t.Fatalf("PayloadBits = %d", a.PayloadBits())
	}
	if a.SparseBlocks != 1 {
		t.Fatalf("SparseBlocks = %d", a.SparseBlocks)
	}
	a.Merge(nil) // must not panic
}

// Compression is idempotent on its own output: once a block consists of
// already-quantized values, a second compress→decompress cycle is
// lossless. Downstream pipelines can therefore re-compress decompressed
// data without accumulating error.
func TestQuickCompressionIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Defaults(rng.Intn(5)+2, rng.Intn(20)+2, 1e-9)
		data := make([]float64, (rng.Intn(3)+1)*cfg.BlockSize())
		for i := range data {
			data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)-7))
		}
		c1, err := Compress(data, cfg, nil)
		if err != nil {
			return false
		}
		d1, err := Decompress(c1, 1)
		if err != nil {
			return false
		}
		c2, err := Compress(d1, cfg, nil)
		if err != nil {
			return false
		}
		d2, err := Decompress(c2, 1)
		if err != nil {
			return false
		}
		for i := range d1 {
			// Second pass must not drift beyond one further quantum; in
			// practice it is exactly stable after at most one extra pass.
			if math.Abs(d2[i]-d1[i]) > cfg.ErrorBound*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDisableSparseAblation(t *testing.T) {
	// One huge-outlier block: sparse representation should win when
	// enabled; with DisableSparse the stream must still round-trip.
	cfg := Defaults(10, 100, 1e-10)
	block := make([]float64, cfg.BlockSize())
	block[123] = 1e-3 // single large value, everything else zero
	sparseStream, err := Compress(block, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisableSparse = true
	denseStream, err := Compress(block, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sparseStream) >= len(denseStream) {
		t.Fatalf("sparse (%d B) should beat dense (%d B) here", len(sparseStream), len(denseStream))
	}
	got, err := Decompress(denseStream, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxAbsErr(block, got); e > cfg.ErrorBound*(1+1e-9) {
		t.Fatalf("dense ablation max error %g", e)
	}
}
