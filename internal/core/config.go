// Package core implements the PaSTRI compression algorithm (Sec. IV of
// the paper): pattern-scaled, error-bounded lossy compression of blocked
// floating-point data, tuned for two-electron repulsion integral (ERI)
// shell-quartet blocks but applicable to any dataset whose blocks consist
// of sub-blocks repeating one latent pattern up to a scalar.
//
// A block of numSB·sbSize doubles is represented as
//
//	data[s·sbSize+i] ≈ S[s] · P[i],
//
// with the pattern P (one sub-block, quantized to PQ), the scaling
// coefficients S (quantized to SQ) and per-point error-correction quanta
// ECQ = round((data − Ŝ·P̂)/(2·EB)) making the representation exact to
// within the user's absolute error bound EB. The EC stage absorbs both
// natural deviations and the quantization error of P and S, so the bound
// holds unconditionally.
//
// Blocks are self-contained, so Compress and Decompress fan blocks out
// over a bounded worker pool (par.Each), and StreamWriter, the one
// incremental writer, pipelines them through Config.Workers encoders
// and an in-order sequencer; the stream bytes are the same at every
// worker count.
package core

import (
	"fmt"
	"math"

	"repro/internal/encoding"
	"repro/internal/pattern"
	"repro/internal/telemetry"
)

// Config controls compression. The zero value is not valid; use Defaults
// to start from the paper's shipped configuration.
type Config struct {
	// NumSB is the number of sub-blocks per block (Na·Nb for an ERI
	// shell-quartet block).
	NumSB int
	// SBSize is the number of points per sub-block (Nc·Nd).
	SBSize int
	// ErrorBound is the absolute error bound (EB). Typical GAMESS
	// requirement: 1e-10.
	ErrorBound float64
	// Metric selects the pattern-scaling metric (Sec. IV-A). The paper
	// ships ER.
	Metric pattern.Metric
	// Encoding selects the ECQ encoder (Sec. IV-C). The paper ships
	// Tree 5.
	Encoding encoding.Method
	// DisableSparse forces the dense ECQ representation, for ablation of
	// the sparse/dense adaptive choice.
	DisableSparse bool
	// Workers caps parallelism for Compress and StreamWriter; 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Observer carries the runtime-only observability side channels —
	// Collector, Logger, Trace and ProfileCtx, promoted from here — and
	// times every pipeline stage once for both the collector and the
	// request span (internal/telemetry). It is never serialized into
	// streams, and the zero value costs one untaken branch per
	// instrumentation point.
	telemetry.Observer
}

// Defaults returns the paper's shipped configuration for a block geometry
// and error bound: ER scaling, Tree-5 encoding, adaptive sparse ECQ.
func Defaults(numSB, sbSize int, eb float64) Config {
	return Config{
		NumSB:      numSB,
		SBSize:     sbSize,
		ErrorBound: eb,
		Metric:     pattern.ER,
		Encoding:   encoding.Tree5,
	}
}

// BlockSize returns the number of points per block.
func (c Config) BlockSize() int { return c.NumSB * c.SBSize }

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.NumSB <= 0 || c.SBSize <= 0 {
		return fmt.Errorf("core: invalid block geometry %d×%d", c.NumSB, c.SBSize)
	}
	if c.NumSB*c.SBSize > maxBlockSize {
		return fmt.Errorf("core: block size %d exceeds maximum %d", c.NumSB*c.SBSize, maxBlockSize)
	}
	if !(c.ErrorBound > 0) || math.IsInf(c.ErrorBound, 0) {
		return fmt.Errorf("core: error bound must be positive and finite, got %g", c.ErrorBound)
	}
	switch c.Metric {
	case pattern.FR, pattern.ER, pattern.AR, pattern.AAR, pattern.IS:
	default:
		return fmt.Errorf("core: unknown metric %v", c.Metric)
	}
	switch c.Encoding {
	case encoding.Fixed, encoding.Tree1, encoding.Tree2, encoding.Tree3,
		encoding.Tree4, encoding.Tree5:
	default:
		return fmt.Errorf("core: unknown encoding %v", c.Encoding)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: negative worker count %d", c.Workers)
	}
	return nil
}

// maxBlockSize bounds a single block. The largest common ERI
// configuration, (ff|ff), has 10^4 = 10000 points (paper Sec. IV-C);
// we allow comfortably more for generic datasets.
const maxBlockSize = 1 << 24
