package core

import (
	"fmt"
	"math"

	"repro/internal/bitio"
	"repro/internal/encoding"
	"repro/internal/quant"
	"repro/internal/telemetry"
)

// The block encoder: one fused pass from raw doubles to emitted bits.
//
// The quantization pass never materializes a dense ECQ slice. For ERI
// data the overwhelming majority of quanta are zero, so a dense slice
// would spend almost all of its store and reload traffic on zeros.
// Instead the pass appends only the surviving nonzero quanta to a
// compact (index, value) list — the zero population is implicit in the
// index gaps — and the emission stage streams straight from that list
// into the bit writer:
//
//   - dense tree coders: EncodeList packs zero runs and codewords into a
//     64-bit register for Tree 3/Tree 5 and streams the other methods
//     through the per-value emitters, one Zeros(run) call per gap and
//     one Value call per nonzero;
//   - the sparse coder consumes the list as-is via EncodeSparseList;
//   - PQ and SQ go out through the batched WriteSignedN kernel, which
//     packs codewords into a local 64-bit register before spilling.
//
// The observers read the same list: Stats counts the zero quanta as
// blockSize − len(nzIdx), and recordTrace walks the list with a cursor
// while it rebuilds the reconstruction.
//
// The staged encoder this pass replaced, which filled a dense ECQ arena
// before emitting it, survives only as the test oracle (staged_test.go).
// The goldens pin the stream format; TestFusedMatchesStaged and
// FuzzFusedCompress hold this encoder to the oracle byte for byte.

// analyzeFused runs pattern fit, P/S quantization and the
// error-correction pass (Sec. IV-A/IV-B), gathering the nonzero quanta
// into the nzIdx/nzQ arenas and accumulating the cost counts for every
// encoding method (consumed by EncodeBlock) in the same scan. It returns
// the pattern/scale bit width P_b and the widest ECQ bin.
//
//pastri:hotpath
func (e *BlockEncoder) analyzeFused(block []float64) (pb, ecbMax uint, err error) {
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
	// method) and the scales with S_b = P_b, through the four-lane kernel.
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
	quant.QuantizeClampN(e.pq, pat, pBin, pb)
	quant.QuantizeClampN(e.sq, res.Scales, sBin, sb)

	// 3. Error correction against the *reconstructed* scaled pattern, so
	// the EC term absorbs the quantization error of P and S (eq. (11)),
	// gathering nonzeros only. The skipped zero population is folded into
	// the cost counts wholesale at the end (AddZeros — commutative, so the
	// CostSet cannot differ from observing every zero).
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
	// math.Round yields ±0 and int64(±0) is 0. Residuals in
	// [0.499, 0.5)·ecBin just take the divide and still produce 0.
	zeroCut := 0.499 * ecBin
	// ±1 fast path bounds: residuals with d/ecBin certainly in (1/2, 3/2)
	// quantize to exactly 1 (symmetrically -1) without the divide. The
	// margins absorb both float roundings (threshold multiply and
	// Quantize's divide): d > fl(0.501·ecBin) forces the computed
	// quotient above 0.501·(1−2⁻⁵³)² > 1/2, and d < fl(1.499·ecBin)
	// keeps it below 1.499·(1+2⁻⁵³)² < 3/2, so round() lands on 1 on
	// both routes — byte-identical to calling Quantize.
	// ECQ residuals are overwhelmingly ±1 quanta, which is what makes
	// the shortcut pay; boundary values fall back to the divide. The
	// margin arguments need a normal-range ecBin whose 1.499 multiple
	// cannot overflow, so tiny bins disable both shortcuts (zeroCut = 0
	// always divides) and huge bins the ±1 path (oneLo = +Inf fails
	// every test below).
	oneLo, oneHi := 0.501*ecBin, 1.499*ecBin
	if ecBin < 1e-300 {
		zeroCut = 0
		oneLo = math.Inf(1)
	} else if ecBin > 1e300 {
		oneLo = math.Inf(1)
	}
	ecbMax = 1
	// The counts live in a stack-local struct through the loop: the
	// inlined ObserveNonZero then updates registers, not memory the
	// compiler must assume the appends below could alias.
	var costs encoding.CostCounts
	nzIdx := e.nzIdx[:0]
	nzQ := e.nzQ[:0]
	for s := 0; s < cfg.NumSB; s++ {
		sHat := quant.Dequantize(e.sq[s], sBin)
		base := s * cfg.SBSize
		// Slicing by len(pHat) tells the prove pass len(sub) == len(pHat),
		// so pHat[i] below needs no bounds check.
		sub := block[base : base+len(pHat)]
		for i, x := range sub {
			d := x - sHat*pHat[i]
			if d < zeroCut && d > -zeroCut {
				continue
			}
			// The constant-argument ObserveNonZero calls in the ±1 arms
			// constant-fold after inlining (no sign test, no Len64).
			var q int64
			if d > oneLo && d < oneHi {
				q = 1
				if b := costs.ObserveNonZero(1); b > ecbMax {
					ecbMax = b
				}
			} else if d < -oneLo && d > -oneHi {
				q = -1
				if b := costs.ObserveNonZero(-1); b > ecbMax {
					ecbMax = b
				}
			} else {
				if q = quant.Quantize(d, ecBin); q == 0 {
					continue
				}
				if b := costs.ObserveNonZero(q); b > ecbMax {
					ecbMax = b
				}
			}
			nzIdx = append(nzIdx, int32(base+i))
			nzQ = append(nzQ, q)
		}
	}
	costs.AddZeros(uint64(cfg.BlockSize() - len(nzIdx)))
	e.costs = costs
	e.nzIdx, e.nzQ = nzIdx, nzQ
	qt.End()
	if ecbMax > 63 {
		return 0, 0, fmt.Errorf("core: ECQ needs %d bits; data range too wide for EB %g", ecbMax, eb)
	}
	return pb, ecbMax, nil
}

// EncodeBlock appends the compressed representation of block to w.
// len(block) must equal cfg.BlockSize().
//
//pastri:hotpath
func (e *BlockEncoder) EncodeBlock(w *bitio.Writer, block []float64) error {
	cfg := e.cfg
	startBits := w.BitLen()
	pb, ecbMax, err := e.analyzeFused(block)
	if err != nil {
		return err
	}
	enc := e.cfg.Stage(telemetry.StageEncode)

	// 4. Header fields.
	w.WriteBits(uint64(pb-1), pbFieldBits)
	w.WriteBits(uint64(ecbMax), ecbMaxFieldBits)

	// 5. PQ and SQ through the batched fixed-width kernel.
	w.WriteSignedN(e.pq, pb)
	sqStart := w.BitLen()
	w.WriteSignedN(e.sq, pb) // S_b = P_b (Sec. IV-B)
	ecqStart := w.BitLen()

	// 6. ECQ straight from the nonzero list. Type-0 blocks (empty list,
	// ECbMax == 1) spend no bits; otherwise pick the sparse or dense
	// representation by exact cost, priced from the counts the quantize
	// pass accumulated.
	usedSparse := false
	if ecbMax > 1 {
		idxBits := encoding.IndexBits(cfg.BlockSize())
		countBits := encoding.IndexBits(cfg.BlockSize() + 1)
		set := e.costs.CostSet(ecbMax, idxBits, countBits)
		if !cfg.DisableSparse && set.Sparse < set.Bits(cfg.Encoding) {
			usedSparse = true
			w.WriteBit(1)
			encoding.EncodeSparseList(w, e.nzIdx, e.nzQ, ecbMax, idxBits, countBits)
		} else {
			w.WriteBit(0)
			encoding.EncodeList(w, e.nzIdx, e.nzQ, cfg.BlockSize(), ecbMax, cfg.Encoding)
		}
	}

	enc.End()

	if e.stats != nil {
		e.stats.recordBlock(e.nzQ, cfg.BlockSize(), ecbMax,
			sqStart-startBits-uint64(pbFieldBits+ecbMaxFieldBits), // PQ bits
			ecqStart-sqStart,    // SQ bits
			w.BitLen()-ecqStart, // ECQ bits
			uint64(pbFieldBits+ecbMaxFieldBits), usedSparse)
	}
	if cfg.Collector != nil || e.debugLog {
		kind := telemetry.EncType0
		if ecbMax > 1 {
			if usedSparse {
				kind = telemetry.EncSparse
			} else {
				kind = telemetry.EncDense
			}
		}
		e.recordTrace(block, pb, ecbMax, w.BitLen()-startBits, kind)
	}
	return nil
}
