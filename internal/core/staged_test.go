package core

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/encoding"
	"repro/internal/quant"
	"repro/internal/telemetry"
)

// The staged reference encoder: the compression pipeline as it shipped
// before the fused pass (fused.go), kept as the differential oracle for
// EncodeBlock. analyze writes every stage's output into scratch arenas
// (pq, sq and a dense ecq) before encodeBlockStaged reads them back.
// Beyond the pattern fit and the scalar quant primitives it shares no
// loop with analyzeFused: P and S are quantized one value at a time
// instead of through the four-lane kernel, every residual outside the
// zero cut takes the divide (no ±1 shortcut), every quantum, zeros
// included, is observed by the cost counter, and Stats are fed one
// dense quantum at a time. Its dense ECQ reaches EncodeList and
// EncodeSparseList through a gather; the encoding package tests hold
// those emitters to symbol-at-a-time reference coders.
//
// The oracle records Stats but no trace: TestFusedTraceParity
// recomputes each trace field from the oracle's dense ECQ instead.

// stagedEncoder borrows a BlockEncoder's scratch (pq, sq, pHat, the
// pattern scratch, the cost counts and the Stats sink) and owns the
// dense ECQ arena the fused encoder does without.
type stagedEncoder struct {
	*BlockEncoder
	ecq []int64
}

func newStagedEncoder(cfg Config, stats *Stats) *stagedEncoder {
	e := &stagedEncoder{BlockEncoder: &BlockEncoder{}, ecq: make([]int64, cfg.BlockSize())}
	e.reset(cfg)
	e.stats = stats
	return e
}

// compressStaged is Compress through the staged oracle: serial, block
// by block, with the payloads framed by the production assembleStream.
func compressStaged(data []float64, cfg Config, stats *Stats) ([]byte, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bs := cfg.BlockSize()
	if len(data)%bs != 0 {
		return nil, fmt.Errorf("core: data length %d is not a multiple of block size %d", len(data), bs)
	}
	e := newStagedEncoder(cfg, stats)
	w := bitio.NewWriter(bs)
	payloads := make([]*[]byte, 0, len(data)/bs)
	for b := 0; b*bs < len(data); b++ {
		w.Reset()
		if err := e.encodeBlockStaged(w, data[b*bs:(b+1)*bs]); err != nil {
			return nil, err
		}
		p := append([]byte(nil), w.Bytes()...)
		payloads = append(payloads, &p)
	}
	return assembleStream(payloads, cfg), nil
}

// gatherNonZero splits a dense ECQ slice into the ascending (index,
// value) list of its nonzero quanta.
func gatherNonZero(ecq []int64) ([]int32, []int64) {
	var idxs []int32
	var nz []int64
	for i, q := range ecq {
		if q != 0 {
			idxs = append(idxs, int32(i))
			nz = append(nz, q)
		}
	}
	return idxs, nz
}

// recordBlockDense is Stats.recordBlock as the staged encoder fed it:
// one histogram update per dense quantum, zeros included.
func recordBlockDense(s *Stats, ecq []int64, ecbMax uint, pqBits, sqBits, ecqBits, headerBits uint64, sparse bool) {
	if sparse {
		s.SparseBlocks++
	}
	s.Blocks++
	t := ClassifyECbMax(ecbMax)
	s.TypeCount[t]++
	for _, v := range ecq {
		b := quant.BitsForValue(v)
		s.BinHist[t][b]++
		s.TotalHist[b]++
	}
	s.PatternBits += pqBits
	s.ScaleBits += sqBits
	s.ECQBits += ecqBits
	s.HeaderBits += headerBits
	s.ECbMaxHist[ecbMax]++
}

// analyze runs the pattern-scaling and quantization stages
// (Sec. IV-A/IV-B) as one fused traversal: pattern fit into the
// encoder's scratch, pattern/scale quantization, and an error-correction
// pass that quantizes, tracks the widest bin and accumulates the cost
// counts for every encoding method (consumed by encodeBlockStaged) in a
// single scan. It fills the scratch buffers pq, sq and ecq, and returns
// the pattern/scale bit width P_b and the widest ECQ bin.
func (e *stagedEncoder) analyze(block []float64) (pb, ecbMax uint, err error) {
	cfg := e.cfg
	if len(block) != cfg.BlockSize() {
		return 0, 0, fmt.Errorf("core: block has %d points, config wants %d", len(block), cfg.BlockSize())
	}
	// 1. Pattern analysis (Sec. IV-A), writing into encoder-owned scratch.
	fit := e.cfg.Stage(telemetry.StagePatternFit)
	res, err := e.pat.Analyze(block, cfg.NumSB, cfg.SBSize, cfg.Metric)
	fit.End()
	if err != nil {
		return 0, 0, err
	}
	qt := e.cfg.Stage(telemetry.StageQuantize)
	pat := block[res.PatternIndex*cfg.SBSize : (res.PatternIndex+1)*cfg.SBSize]

	// 2. Quantize the pattern with Pbinsize = 2·EB (Sec. IV-B practical
	// method) and the scales with S_b = P_b.
	eb := cfg.ErrorBound
	pBin := 2 * eb
	pExt, _ := quant.MaxAbs(pat)
	pb = quant.PatternBits(pExt, eb)
	if pb > 64 {
		qt.End()
		return 0, 0, fmt.Errorf("core: pattern extremum %g needs %d bits at EB %g", pExt, pb, eb)
	}
	sb := pb
	sBin := quant.ScaleBinSize(sb)
	for i, p := range pat {
		e.pq[i] = quant.ClampSigned(quant.Quantize(p, pBin), pb)
	}
	for s, sc := range res.Scales {
		e.sq[s] = quant.ClampSigned(quant.Quantize(sc, sBin), sb)
	}

	// 3. Error correction against the *reconstructed* scaled pattern, so
	// the EC term absorbs the quantization error of P and S (eq. (11)).
	// The reconstructed pattern is hoisted out of the sub-block loop, and
	// the loop body feeds each quantum to the cost accumulator — a zero
	// through AddZeros(1), a nonzero through ObserveNonZero, which
	// returns the bin number — so quantization, ECb_max tracking and
	// method pricing all ride the same pass over the block.
	pHat := e.pHat[:cfg.SBSize]
	for i := range pHat {
		pHat[i] = quant.Dequantize(e.pq[i], pBin)
	}
	ecBin := 2 * eb
	// Most residuals quantize to zero (that is what makes ECQ compress),
	// and the divide in Quantize dominates this loop. A residual d with
	// |d| < 0.499·ecBin provably rounds to quantum 0: even after the two
	// roundings (the threshold multiply and Quantize's divide) the
	// quotient magnitude stays below 0.499·(1+2⁻⁵³)² < 0.5, so
	// math.Round yields ±0 and int64(±0) is 0 — byte-identical to the
	// slow path. Residuals in [0.499, 0.5)·ecBin just take the divide and
	// still produce 0. The margin argument assumes a normal-range
	// threshold, so absurdly tiny bins fall back to always dividing.
	zeroCut := 0.499 * ecBin
	if ecBin < 1e-300 {
		zeroCut = 0
	}
	ecbMax = 1
	e.costs = encoding.CostCounts{}
	for s := 0; s < cfg.NumSB; s++ {
		sHat := quant.Dequantize(e.sq[s], sBin)
		base := s * cfg.SBSize
		sub := block[base : base+cfg.SBSize]
		out := e.ecq[base : base+cfg.SBSize]
		for i, x := range sub {
			d := x - sHat*pHat[i]
			var q int64
			if !(d < zeroCut && d > -zeroCut) {
				q = quant.Quantize(d, ecBin)
			}
			out[i] = q
			if q == 0 {
				e.costs.AddZeros(1)
			} else if b := e.costs.ObserveNonZero(q); b > ecbMax {
				ecbMax = b
			}
		}
	}
	qt.End()
	if ecbMax > 63 {
		return 0, 0, fmt.Errorf("core: ECQ needs %d bits; data range too wide for EB %g", ecbMax, eb)
	}
	return pb, ecbMax, nil
}

// encodeBlockStaged is the staged reference encoder: analyze fills the
// pq/sq/ecq arenas, then the emission stage walks them.
func (e *stagedEncoder) encodeBlockStaged(w *bitio.Writer, block []float64) error {
	cfg := e.cfg
	startBits := w.BitLen()
	pb, ecbMax, err := e.analyze(block)
	if err != nil {
		return err
	}
	enc := e.cfg.Stage(telemetry.StageEncode)

	// 4. Emit header fields.
	w.WriteBits(uint64(pb-1), pbFieldBits)
	w.WriteBits(uint64(ecbMax), ecbMaxFieldBits)

	// 5. Emit PQ and SQ fixed-length.
	for _, q := range e.pq {
		w.WriteSigned(q, pb)
	}
	sqStart := w.BitLen()
	for _, q := range e.sq {
		w.WriteSigned(q, pb) // S_b = P_b (Sec. IV-B)
	}
	ecqStart := w.BitLen()

	// 6. Emit ECQ: Type-0 blocks (all quanta zero) spend no bits at all;
	// otherwise pick sparse or dense representation by exact cost.
	usedSparse := false
	if ecbMax > 1 {
		idxBits := encoding.IndexBits(cfg.BlockSize())
		countBits := encoding.IndexBits(cfg.BlockSize() + 1)
		// The cost counts were accumulated during analyze's quantization
		// pass; pricing every method is O(1) algebra from here.
		set := e.costs.CostSet(ecbMax, idxBits, countBits)
		dense := set.Bits(cfg.Encoding)
		sparse := set.Sparse
		idxs, nz := gatherNonZero(e.ecq)
		if !cfg.DisableSparse && sparse < dense {
			usedSparse = true
			w.WriteBit(1)
			encoding.EncodeSparseList(w, idxs, nz, ecbMax, idxBits, countBits)
		} else {
			w.WriteBit(0)
			encoding.EncodeList(w, idxs, nz, len(e.ecq), ecbMax, cfg.Encoding)
		}
	}

	enc.End()

	if e.stats != nil {
		recordBlockDense(e.stats, e.ecq, ecbMax,
			sqStart-startBits-uint64(pbFieldBits+ecbMaxFieldBits), // PQ bits
			ecqStart-sqStart,    // SQ bits
			w.BitLen()-ecqStart, // ECQ bits
			uint64(pbFieldBits+ecbMaxFieldBits), usedSparse)
	}
	return nil
}
