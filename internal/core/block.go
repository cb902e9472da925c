package core

import (
	"context"
	"fmt"
	"log/slog"
	"math"

	"repro/internal/bitio"
	"repro/internal/encoding"
	"repro/internal/pattern"
	"repro/internal/quant"
	"repro/internal/telemetry"
)

// Block bitstream layout (all fields bit-packed, MSB first):
//
//	Pb      6 bits   pattern/scale bit width − 1   (1..64)
//	ECbMax  6 bits   widest ECQ bin (1 ⇒ Type-0 block, no ECQ section)
//	PQ      SBSize × Pb bits (two's complement)
//	SQ      NumSB  × Pb bits (two's complement; S_b = P_b, Sec. IV-B)
//	[if ECbMax > 1]
//	  sparse 1 bit
//	  ECQ    dense: tree-coded; sparse: count + (index,value) pairs
//
// Everything else (EB, geometry, metric, encoding method) lives in the
// stream header; a block is decodable given the Config alone, which is
// what makes blocks independently (de)compressible in parallel.

const (
	pbFieldBits     = 6
	ecbMaxFieldBits = 6
)

// BlockEncoder compresses blocks one at a time, reusing scratch buffers.
// It is not safe for concurrent use; stream compression creates one per
// worker.
type BlockEncoder struct {
	cfg Config
	// debugLog caches the observer's DebugEnabled at reset time so the
	// per-block gate is one boolean test, not an interface call.
	debugLog bool
	// scratch arenas, sized once in reset and reused for every block
	pq    []int64
	sq    []int64
	nzIdx []int32 // block positions of nonzero ECQ, ascending
	nzQ   []int64 // the matching nonzero quanta
	pHat  []float64
	recon []float64 // flight-recorder capture arena; grown only when a recorder wants data
	pat   pattern.Scratch
	costs encoding.CostCounts // filled by analyzeFused, priced in EncodeBlock
	stats *Stats              // optional, may be nil
}

// NewBlockEncoder returns an encoder for the given configuration.
func NewBlockEncoder(cfg Config) (*BlockEncoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &BlockEncoder{}
	e.reset(cfg)
	return e, nil
}

// reset re-points the encoder at cfg (which must already be validated)
// and sizes the scratch arenas, reusing their backing arrays when the
// geometry allows. The encoder pool uses this to recycle encoders
// across blocks and calls.
func (e *BlockEncoder) reset(cfg Config) {
	e.cfg = cfg
	e.debugLog = cfg.DebugEnabled()
	e.stats = nil
	e.pq = growI64(e.pq, cfg.SBSize)
	e.sq = growI64(e.sq, cfg.NumSB)
	e.nzIdx = growI32(e.nzIdx, cfg.BlockSize())
	e.nzQ = growI64(e.nzQ, cfg.BlockSize())
	e.pHat = growFloat64(e.pHat, cfg.SBSize)
}

// growI64 returns s resized to n elements, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n) //lint:hotalloc2-ok grow path: reallocates only until scratch reaches steady-state capacity
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n) //lint:hotalloc2-ok grow path: reallocates only until scratch reaches steady-state capacity
	}
	return s[:n]
}

func growFloat64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n) //lint:hotalloc2-ok grow path: reallocates only until scratch reaches steady-state capacity
	}
	return s[:n]
}

// CollectStats attaches a Stats sink; pass nil to detach.
func (e *BlockEncoder) CollectStats(s *Stats) { e.stats = s }

// ECQCodes exposes the quantized error-correction values and the widest
// bin a block would produce under this configuration — the raw material
// of the encoder-design analyses (Fig. 6 histograms, the Huffman
// comparison of Sec. IV-C). The returned slice is freshly allocated.
func (e *BlockEncoder) ECQCodes(block []float64) ([]int64, uint, error) {
	_, ecbMax, err := e.analyzeFused(block)
	if err != nil {
		return nil, 0, err
	}
	ecq := make([]int64, len(block))
	for k, idx := range e.nzIdx {
		ecq[idx] = e.nzQ[k]
	}
	return ecq, ecbMax, nil
}

// recordTrace computes the per-block trace record — exponent span,
// chosen encoding, ECQ summary, bytes in/out and error-bound slack —
// and hands it to the collector. Only called when a collector is
// attached; the slack recomputation reuses the scratch analyzeFused
// just filled (pHat, sq and the nonzero list, walked with a cursor), so
// it costs one extra pass over the block. When an attached flight
// recorder wants block data, the same pass also materializes the
// reconstruction into the recon arena so an anomaly can be captured
// for offline zcheck replay.
func (e *BlockEncoder) recordTrace(block []float64, pb, ecbMax uint, payloadBits uint64, kind telemetry.BlockEncoding) {
	cfg := e.cfg
	minExp, maxExp, seen := 0, 0, false
	ecqNonZero := len(e.nzIdx)
	for _, v := range block {
		if v == 0 { // exact zero test selects values that have a binary exponent
			continue
		}
		exp := quant.Exponent(v) // math.Frexp's exponent, without the split
		if !seen {
			minExp, maxExp, seen = exp, exp, true
		} else if exp < minExp {
			minExp = exp
		} else if exp > maxExp {
			maxExp = exp
		}
	}
	wantData := cfg.Collector.FlightWantsData()
	var recon []float64
	if wantData {
		// Grown only on the flight-recorder path so the default
		// telemetry path stays allocation-free after warmup.
		e.recon = growFloat64(e.recon, cfg.BlockSize())
		recon = e.recon
	}
	eb := cfg.ErrorBound
	sBin := quant.ScaleBinSize(pb) // S_b = P_b
	ecBin := 2 * eb
	pHat := e.pHat[:cfg.SBSize]
	nzIdx, nzQ := e.nzIdx, e.nzQ
	k := 0 // cursor: nzIdx[k] is the next nonzero position
	maxRes := 0.0
	for s := 0; s < cfg.NumSB; s++ {
		sHat := quant.Dequantize(e.sq[s], sBin)
		base := s * cfg.SBSize
		for i := 0; i < cfg.SBSize; i++ {
			var q int64
			if k < len(nzIdx) && int(nzIdx[k]) == base+i {
				q = nzQ[k]
				k++
			}
			rec := sHat*pHat[i] + quant.Dequantize(q, ecBin)
			if recon != nil {
				recon[base+i] = rec
			}
			if r := math.Abs(block[base+i] - rec); r > maxRes {
				maxRes = r
			}
		}
	}
	id := cfg.Collector.RecordBlock(telemetry.TraceRecord{
		SubBlocks:  cfg.NumSB,
		ExpSpan:    maxExp - minExp,
		Encoding:   kind,
		BytesIn:    len(block) * 8,
		BytesOut:   int((payloadBits + 7) / 8),
		EBSlack:    eb - maxRes,
		ECQNonZero: ecqNonZero,
		ECbMax:     int(ecbMax),
	}, block, recon)
	if e.debugLog {
		cfg.Logger.LogAttrs(context.Background(), slog.LevelDebug, "block compressed",
			slog.Uint64("block", id),
			slog.String("class", quartetClass(cfg.NumSB, cfg.SBSize)),
			slog.String("encoding", kind.String()),
			slog.Int("bytes_in", len(block)*8),
			slog.Int("bytes_out", int((payloadBits+7)/8)),
			slog.Float64("eb_slack", eb-maxRes),
			slog.Int("ecq_nonzero", ecqNonZero),
			slog.Int("ecb_max", int(ecbMax)))
	}
}

// BlockDecoder decompresses blocks, reusing scratch buffers. Not safe for
// concurrent use.
type BlockDecoder struct {
	cfg  Config
	pq   []int64
	sq   []int64
	ecq  []int64
	pHat []float64
	r    bitio.Reader // DecodeBlockBytes's reader, pooled with the decoder
}

// NewBlockDecoder returns a decoder for the given configuration.
func NewBlockDecoder(cfg Config) (*BlockDecoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &BlockDecoder{}
	d.reset(cfg)
	return d, nil
}

// reset re-points the decoder at cfg (which must already be validated),
// sizing the scratch arenas and reusing backing arrays when possible.
func (d *BlockDecoder) reset(cfg Config) {
	d.cfg = cfg
	d.pq = growI64(d.pq, cfg.SBSize)
	d.sq = growI64(d.sq, cfg.NumSB)
	d.ecq = growI64(d.ecq, cfg.BlockSize())
	d.pHat = growFloat64(d.pHat, cfg.SBSize)
}

// DecodeBlock reads one block from r into dst, which must have
// cfg.BlockSize() elements.
//
//pastri:hotpath
func (d *BlockDecoder) DecodeBlock(r *bitio.Reader, dst []float64) error {
	cfg := d.cfg
	if len(dst) != cfg.BlockSize() {
		return fmt.Errorf("core: dst has %d points, config wants %d", len(dst), cfg.BlockSize())
	}
	defer d.cfg.Stage(telemetry.StageDecode).End()
	pbRaw, err := r.ReadBits(pbFieldBits)
	if err != nil {
		return err
	}
	pb := uint(pbRaw) + 1
	ecbRaw, err := r.ReadBits(ecbMaxFieldBits)
	if err != nil {
		return err
	}
	ecbMax := uint(ecbRaw)
	if ecbMax == 0 || ecbMax > 63 {
		return fmt.Errorf("core: corrupt block header: ECbMax=%d", ecbMax)
	}

	for i := range d.pq {
		q, err := r.ReadSigned(pb)
		if err != nil {
			return err
		}
		d.pq[i] = q
	}
	sb := pb
	for s := range d.sq {
		q, err := r.ReadSigned(sb)
		if err != nil {
			return err
		}
		d.sq[s] = q
	}
	if ecbMax > 1 {
		sparse, err := r.ReadBit()
		if err != nil {
			return err
		}
		idxBits := encoding.IndexBits(cfg.BlockSize())
		countBits := encoding.IndexBits(cfg.BlockSize() + 1)
		if sparse == 1 {
			if err := encoding.DecodeSparse(r, d.ecq, ecbMax, idxBits, countBits); err != nil {
				return err
			}
		} else {
			if err := encoding.Decode(r, d.ecq, ecbMax, cfg.Encoding); err != nil {
				return err
			}
		}
	} else {
		for i := range d.ecq {
			d.ecq[i] = 0
		}
	}

	eb := cfg.ErrorBound
	pBin := 2 * eb
	sBin := quant.ScaleBinSize(sb)
	ecBin := 2 * eb
	pHat := d.pHat[:cfg.SBSize]
	for i := range pHat {
		pHat[i] = quant.Dequantize(d.pq[i], pBin)
	}
	for s := 0; s < cfg.NumSB; s++ {
		sHat := quant.Dequantize(d.sq[s], sBin)
		base := s * cfg.SBSize
		for i := 0; i < cfg.SBSize; i++ {
			dst[base+i] = sHat*pHat[i] + quant.Dequantize(d.ecq[base+i], ecBin)
		}
	}
	return nil
}

// MaxBlockError returns the worst-case reconstruction error the codec can
// introduce for the given configuration: exactly EB (up to floating-point
// rounding in the reconstruction arithmetic).
func MaxBlockError(cfg Config) float64 {
	// One mid-tread quantization of the EC residual with bin 2·EB.
	return cfg.ErrorBound * (1 + 4*math.Nextafter(1, 2) - 4)
}
