package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitio"
	"repro/internal/encoding"
	"repro/internal/pattern"
	"repro/internal/quant"
	"repro/internal/telemetry"
)

// Byte-identity battery for the fused single-pass encoder: over
// randomized configurations and data, EncodeBlock must produce exactly
// the stream the staged oracle (staged_test.go) produces — same bytes,
// same stats, same errors. The committed goldens already pin the fused
// encoder to the frozen format; these tests additionally sweep corners
// no golden covers.

// compareStaged compresses data with the fused encoder at the given
// worker count and with the staged oracle. It returns the fused stream
// (nil when both sides failed alike) and an error describing any
// divergence: different bytes, one side failing alone, or different
// error text. The oracle is serial, so it reports the first failing
// block's error, and so must the fused run at every worker count.
func compareStaged(data []float64, cfg Config, workers int) ([]byte, error) {
	fused, errF := CompressWorkers(data, cfg, workers, nil)
	staged, errS := compressStaged(data, cfg, nil)
	if (errF == nil) != (errS == nil) {
		return nil, fmt.Errorf("error parity broken: fused=%v staged=%v", errF, errS)
	}
	if errS != nil {
		if errF.Error() != errS.Error() {
			return nil, fmt.Errorf("errors differ:\n  fused:  %v\n  staged: %v", errF, errS)
		}
		return nil, nil
	}
	if !bytes.Equal(fused, staged) {
		return nil, fmt.Errorf("fused stream differs from staged (%d vs %d bytes)", len(fused), len(staged))
	}
	return fused, nil
}

func TestFusedMatchesStaged(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	metrics := []pattern.Metric{pattern.ER, pattern.FR, pattern.AR, pattern.AAR, pattern.IS}
	methods := []encoding.Method{encoding.Fixed, encoding.Tree1, encoding.Tree2,
		encoding.Tree3, encoding.Tree4, encoding.Tree5}
	workerSet := []int{1, 2, 4, 7}
	for trial := 0; trial < 60; trial++ {
		cfg := Config{
			NumSB:         1 + rng.Intn(12),
			SBSize:        1 + rng.Intn(24),
			ErrorBound:    math.Pow(10, -3-float64(rng.Intn(10))), // 1e-3 .. 1e-12
			Metric:        metrics[rng.Intn(len(metrics))],
			Encoding:      methods[rng.Intn(len(methods))],
			DisableSparse: rng.Intn(4) == 0,
		}
		nblocks := 1 + rng.Intn(20)
		var data []float64
		if rng.Intn(2) == 0 {
			data = eriLikeBlocks(cfg, nblocks, rng.Int63())
		} else {
			data = make([]float64, 0, nblocks*cfg.BlockSize())
			amp := math.Pow(10, float64(rng.Intn(12)-6))
			noise := cfg.ErrorBound * math.Pow(10, float64(rng.Intn(4)-1))
			for b := 0; b < nblocks; b++ {
				data = append(data, patternedBlock(rng, cfg.NumSB, cfg.SBSize, amp, noise, 0.05)...)
			}
		}
		workers := workerSet[rng.Intn(len(workerSet))]

		fused, err := compareStaged(data, cfg, workers)
		if err != nil {
			t.Fatalf("trial %d (%+v, workers=%d): %v", trial, cfg, workers, err)
		}
		if fused == nil {
			continue
		}
		dec, err := Decompress(fused, 1)
		if err != nil {
			t.Fatalf("trial %d: decompress: %v", trial, err)
		}
		for i, x := range data {
			// A few ulps of the value magnitude cover reconstruction
			// rounding when EB sits below representable precision.
			tol := cfg.ErrorBound + 8*math.Abs(x)*0x1p-52
			if math.Abs(x-dec[i]) > tol {
				t.Fatalf("trial %d: point %d violates EB: |%g - %g| > %g", trial, i, x, dec[i], cfg.ErrorBound)
			}
		}
	}
}

// TestFusedMatchesStagedSpecials hits block shapes the random sweep is
// unlikely to produce: all-zero (Type-0), pure pattern (zero residual),
// denormal data, single-point geometry, and residual magnitudes that
// force the widest ECQ bins.
func TestFusedMatchesStagedSpecials(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	cases := []struct {
		name string
		cfg  Config
		data func(cfg Config) []float64
	}{
		{"type0", Defaults(6, 10, 1e-8), func(cfg Config) []float64 {
			return make([]float64, cfg.BlockSize())
		}},
		{"pure-pattern", Defaults(4, 12, 1e-10), func(cfg Config) []float64 {
			data := make([]float64, cfg.BlockSize())
			for s := 0; s < cfg.NumSB; s++ {
				for i := 0; i < cfg.SBSize; i++ {
					data[s*cfg.SBSize+i] = float64(s+1) * math.Sin(float64(i))
				}
			}
			return data
		}},
		{"denormal", Defaults(3, 7, 1e-12), func(cfg Config) []float64 {
			data := make([]float64, cfg.BlockSize())
			for i := range data {
				data[i] = float64(i%5) * 5e-324
			}
			return data
		}},
		{"single-point", Defaults(1, 1, 1e-10), func(cfg Config) []float64 {
			return []float64{0.7071}
		}},
		{"wide-bins", Defaults(2, 8, 1e-3), func(cfg Config) []float64 {
			data := make([]float64, cfg.BlockSize())
			for i := range data {
				// Large deviations from any pattern fit force wide ECQ bins.
				data[i] = rng.NormFloat64() * math.Pow(10, float64(i%7))
			}
			return data
		}},
		{"negative-zero", Defaults(2, 6, 1e-9), func(cfg Config) []float64 {
			data := make([]float64, cfg.BlockSize())
			for i := range data {
				data[i] = math.Copysign(0, -1)
			}
			return data
		}},
	}
	for _, tc := range cases {
		if _, err := compareStaged(tc.data(tc.cfg), tc.cfg, 1); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// TestFusedErrorParity: inputs that make compression fail must fail
// identically in the fused encoder and the staged oracle (same error
// text), since callers and tests match on these messages.
func TestFusedErrorParity(t *testing.T) {
	cfg := Defaults(2, 4, 1e-10)
	for _, tc := range []struct {
		name string
		data []float64
	}{
		{"nan", []float64{1, 2, math.NaN(), 4, 5, 6, 7, 8}},
		{"inf", []float64{1, 2, math.Inf(1), 4, 5, 6, 7, 8}},
		{"huge-range", []float64{1e300, 1, 1, 1, 1, 1, 1, 1}},
	} {
		if _, err := compareStaged(tc.data, cfg, 1); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// allTypesData returns blocks that together produce all four block
// types and both ECQ representations, dense and sparse: an all-zero
// block, pure patterns with residual noise from 0 to 50 bins, pure
// patterns with a few wide outliers, and ERI-like blocks.
func allTypesData(cfg Config) []float64 {
	rng := rand.New(rand.NewSource(33))
	data := make([]float64, cfg.BlockSize()) // Type 0
	for _, bins := range []float64{0, 0.5, 2, 50} {
		data = append(data, patternedBlock(rng, cfg.NumSB, cfg.SBSize, 1e-3, bins*cfg.ErrorBound, 0)...)
	}
	for i := 0; i < 3; i++ {
		data = append(data, patternedBlock(rng, cfg.NumSB, cfg.SBSize, 1e-3, 0, 0.02)...)
	}
	return append(data, eriLikeBlocks(cfg, 12, 7)...)
}

// TestFusedStatsParity: Stats fed from the fused encoder's nonzero list
// must equal the staged oracle's dense-fed Stats in every field, the
// Fig. 6 bin histograms and the ECb_max distribution included, serially
// and when merged across workers.
func TestFusedStatsParity(t *testing.T) {
	cfg := Defaults(6, 10, 1e-10)
	data := allTypesData(cfg)
	want := NewStats()
	if _, err := compressStaged(data, cfg, want); err != nil {
		t.Fatal(err)
	}
	for typ, n := range want.TypeCount {
		if n == 0 {
			t.Fatalf("inputs produce no %v block: %v", BlockType(typ), want.TypeCount)
		}
	}
	if want.SparseBlocks == 0 || want.SparseBlocks == want.Blocks {
		t.Fatalf("inputs need dense and sparse blocks: %d of %d sparse", want.SparseBlocks, want.Blocks)
	}
	for _, workers := range []int{1, 3} {
		got := NewStats()
		if _, err := CompressWorkers(data, cfg, workers, got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: stats diverge:\n  fused:  %+v\n  staged: %+v", workers, got, want)
		}
	}
}

// TestFusedTraceParity: under a live collector and a flight recorder
// whose slack floor turns every block into an artifact, each trace
// record's ECQ summary, slack and payload size must equal the values
// recomputed from the staged oracle's dense ECQ and payload, and each
// artifact must carry the block and, bit for bit, DecodeBlock's
// reconstruction of it. ECQCodes, which scatters the fused list, must
// return the oracle's dense ECQ.
func TestFusedTraceParity(t *testing.T) {
	cfg := Defaults(6, 10, 1e-10)
	data := allTypesData(cfg)
	bs := cfg.BlockSize()
	nblocks := len(data) / bs
	col := telemetry.New(nblocks)
	fr := telemetry.NewFlightRecorder(telemetry.FlightConfig{
		Dir: t.TempDir(), ErrorBound: cfg.ErrorBound,
		SlackFloor: 2 * cfg.ErrorBound, MaxArtifacts: nblocks,
	})
	col.AttachFlight(fr)
	fCfg := cfg
	fCfg.Collector = col
	comp, err := CompressWorkers(data, fCfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	traces := make(map[uint64]telemetry.TraceRecord)
	for _, tr := range col.Snapshot().Traces {
		traces[tr.Block] = tr
	}
	paths := fr.ArtifactPaths()
	if err := fr.Err(); err != nil {
		t.Fatal(err)
	}
	if len(traces) != nblocks || len(paths) != nblocks {
		t.Fatalf("%d trace records and %d artifacts for %d blocks", len(traces), len(paths), nblocks)
	}
	br, err := NewBlockReader(comp)
	if err != nil {
		t.Fatal(err)
	}
	oracle := newStagedEncoder(cfg, nil)
	enc, err := NewBlockEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := bitio.NewWriter(bs)
	decoded := make([]float64, bs)
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for b := 0; b < nblocks; b++ {
		block := data[b*bs : (b+1)*bs]
		w.Reset()
		if err := oracle.encodeBlockStaged(w, block); err != nil {
			t.Fatal(err)
		}
		bytesOut := len(w.Bytes())
		pb, ecbMax, err := oracle.analyze(block) // refill the arenas for the recomputation
		if err != nil {
			t.Fatal(err)
		}
		nonZero := 0
		maxRes := 0.0
		sBin, ecBin := quant.ScaleBinSize(pb), 2*cfg.ErrorBound
		for s := 0; s < cfg.NumSB; s++ {
			sHat := quant.Dequantize(oracle.sq[s], sBin)
			base := s * cfg.SBSize
			for i := 0; i < cfg.SBSize; i++ {
				if oracle.ecq[base+i] != 0 {
					nonZero++
				}
				rec := sHat*oracle.pHat[i] + quant.Dequantize(oracle.ecq[base+i], ecBin)
				if r := math.Abs(block[base+i] - rec); r > maxRes {
					maxRes = r
				}
			}
		}

		codes, codesECB, err := enc.ECQCodes(block)
		if err != nil || codesECB != ecbMax || !reflect.DeepEqual(codes, oracle.ecq) {
			t.Fatalf("block %d: ECQCodes = %v, %d, %v; oracle ECb_max %d", b, codes, codesECB, err, ecbMax)
		}

		rec, ok := traces[uint64(b)]
		if !ok || rec.ECQNonZero != nonZero || rec.ECbMax != int(ecbMax) ||
			rec.BytesOut != bytesOut ||
			math.Float64bits(rec.EBSlack) != math.Float64bits(cfg.ErrorBound-maxRes) {
			t.Fatalf("block %d: trace %+v, oracle: ecq_nonzero %d ecb_max %d bytes_out %d eb_slack %g",
				b, rec, nonZero, ecbMax, bytesOut, cfg.ErrorBound-maxRes)
		}

		art, err := telemetry.ReadFlightArtifact(paths[b])
		if err != nil {
			t.Fatal(err)
		}
		if err := br.ReadBlock(b, decoded); err != nil {
			t.Fatal(err)
		}
		if art.Record != rec || !same(art.Original, block) || !same(art.Reconstructed, decoded) {
			t.Fatalf("block %d: artifact %s does not carry the block, its record and its decoded reconstruction", b, paths[b])
		}
	}
}

// FuzzFusedCompress feeds arbitrary geometry, error bound and raw bytes
// through the fused encoder and the staged oracle, requiring error
// parity and byte-identical streams.
func FuzzFusedCompress(f *testing.F) {
	seed := func(cfg Config, data []float64) {
		raw := make([]byte, len(data)*8)
		for i, v := range data {
			binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
		}
		f.Add(uint8(cfg.NumSB), uint8(cfg.SBSize), uint8(0), raw)
	}
	cfg := Defaults(4, 6, 1e-10)
	seed(cfg, eriLikeBlocks(cfg, 2, 1))
	seed(Defaults(2, 3, 1e-10), []float64{0, 0, 0, 0, 0, 0})
	seed(Defaults(1, 2, 1e-10), []float64{math.NaN(), 1})
	f.Fuzz(func(t *testing.T, nsb, sbs, ebSel uint8, raw []byte) {
		cfg := Defaults(1+int(nsb%10), 1+int(sbs%12), math.Pow(10, -3-float64(ebSel%10)))
		bs := cfg.BlockSize()
		nblocks := len(raw) / 8 / bs
		if nblocks == 0 {
			return
		}
		if nblocks > 8 {
			nblocks = 8
		}
		data := make([]float64, nblocks*bs)
		for i := range data {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
		}
		if _, err := compareStaged(data, cfg, 1+int(nsb%4)); err != nil {
			t.Fatal(err)
		}
	})
}
