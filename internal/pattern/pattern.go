// Package pattern implements PaSTRI's pattern-scaling stage (Sec. IV-A of
// the paper): selecting, for each ERI block, the sub-block that best
// represents the latent repeated shape, and computing one scaling
// coefficient per sub-block that maps the pattern onto that sub-block.
//
// Five scaling metrics are provided, matching Fig. 4 of the paper:
//
//	FR  — ratio of firsts             (pattern = sub-block with largest |first point|)
//	ER  — ratio of extremums          (pattern = sub-block containing the block extremum)
//	AR  — ratio of averages           (pattern = sub-block with largest |average|)
//	AAR — ratio of absolute averages  (pattern = sub-block with largest mean |x|; sign-corrected)
//	IS  — interval scaling            (pattern = sub-block with largest value range; sign-corrected)
//
// All metrics pick the sub-block that maximizes the metric, so every
// scaling coefficient lies in [-1, 1] — a property the quantizer exploits
// (Sec. IV-B). ER is the paper's choice: it yields the best ratio and the
// lowest computational cost.
package pattern

import (
	"fmt"
	"math"
)

// Metric identifies a pattern-scaling method.
type Metric int

// The five scaling metrics evaluated in the paper (Fig. 4).
const (
	ER  Metric = iota // ratio of extremums (paper default)
	FR                // ratio of firsts
	AR                // ratio of averages
	AAR               // ratio of absolute averages
	IS                // interval scaling
)

// String returns the paper's abbreviation for the metric.
func (m Metric) String() string {
	switch m {
	case FR:
		return "FR"
	case ER:
		return "ER"
	case AR:
		return "AR"
	case AAR:
		return "AAR"
	case IS:
		return "IS"
	}
	return fmt.Sprintf("Metric(%d)", int(m))
}

// Metrics lists all supported metrics in the paper's presentation order.
var Metrics = []Metric{FR, ER, AR, AAR, IS}

// Result is the outcome of pattern analysis on one block.
type Result struct {
	PatternIndex int       // which sub-block was chosen as the pattern
	Scales       []float64 // one coefficient per sub-block, in [-1, 1]
	// RefPos is the intra-sub-block position used by point-ratio metrics
	// (FR, ER); -1 for aggregate metrics (AR, AAR, IS).
	RefPos int
}

// Analyze decomposes block into numSB contiguous sub-blocks of size
// sbSize and computes the pattern choice and per-sub-block scaling
// coefficients under metric m. len(block) must equal numSB*sbSize.
//
// The returned pattern is the slice block[p*sbSize:(p+1)*sbSize] for
// p = Result.PatternIndex; callers quantize it separately.
func Analyze(block []float64, numSB, sbSize int, m Metric) (Result, error) {
	return new(Scratch).Analyze(block, numSB, sbSize, m)
}

// Scratch owns the working buffers of repeated Analyze calls so the
// per-block hot path allocates nothing. A zero Scratch is ready to use;
// the buffers grow to the largest geometry seen and are then reused.
type Scratch struct {
	scales []float64
	aggs   []float64
}

// Analyze is like the package-level Analyze, but the Scales slice of
// the returned Result aliases the Scratch and is only valid until the
// next call on the same Scratch.
//
//pastri:hotpath
func (sc *Scratch) Analyze(block []float64, numSB, sbSize int, m Metric) (Result, error) {
	if numSB <= 0 || sbSize <= 0 {
		return Result{}, fmt.Errorf("pattern: invalid geometry %d×%d", numSB, sbSize)
	}
	if len(block) != numSB*sbSize {
		return Result{}, fmt.Errorf("pattern: block has %d points, geometry wants %d×%d=%d",
			len(block), numSB, sbSize, numSB*sbSize)
	}
	sc.scales = growF64(sc.scales, numSB)
	switch m {
	case FR, ER:
		return analyzePointRatio(block, numSB, sbSize, m, sc.scales), nil
	case AR, AAR, IS:
		sc.aggs = growF64(sc.aggs, numSB)
		switch m {
		case AR:
			return analyzeAggregate(block, numSB, sbSize, mean, false, sc.scales, sc.aggs), nil
		case AAR:
			return analyzeAggregate(block, numSB, sbSize, meanAbs, true, sc.scales, sc.aggs), nil
		default:
			return analyzeAggregate(block, numSB, sbSize, valueRange, true, sc.scales, sc.aggs), nil
		}
	default:
		return Result{}, fmt.Errorf("pattern: unknown metric %v", m)
	}
}

// growF64 returns s resized to n elements, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n) //lint:hotalloc2-ok grow path: reallocates only until scratch reaches steady-state capacity
	}
	return s[:n]
}

// analyzePointRatio implements FR and ER: the scaling coefficient of each
// sub-block is the ratio of its value at a fixed reference position to
// the pattern's value there. scales is caller-owned storage of length
// numSB.
func analyzePointRatio(block []float64, numSB, sbSize int, m Metric, scales []float64) Result {
	// Select the pattern.
	patIdx, refPos := 0, 0
	switch m {
	case FR:
		// Sub-block with the largest |first point|; reference is point 0.
		best := -1.0
		for s := 0; s < numSB; s++ {
			a := math.Abs(block[s*sbSize])
			if a > best {
				best = a
				patIdx = s
			}
		}
		refPos = 0
	case ER:
		// Sub-block containing the block extremum; reference is the
		// extremum's intra-sub-block position. The whole-block scan is
		// the eight-lane ArgMaxAbs kernel, whose result is proven
		// identical to a sequential first-strict-max scan (see its
		// doc comment); both the staged and the fused compression
		// paths go through this one kernel, so the pattern choice can
		// never diverge between them.
		_, idx := ArgMaxAbs(block)
		patIdx, refPos = idx/sbSize, idx%sbSize
	}
	ref := block[patIdx*sbSize+refPos]
	for s := 0; s < numSB; s++ {
		scales[s] = safeRatio(block[s*sbSize+refPos], ref)
	}
	scales[patIdx] = 1
	return Result{PatternIndex: patIdx, Scales: scales, RefPos: refPos}
}

// analyzeAggregate implements AR, AAR and IS: the pattern is the
// sub-block maximizing |agg|, and each coefficient is the ratio of
// aggregates, optionally sign-corrected so that the scaled pattern has
// the same polarity as the sub-block (Fig. 4 "requires sign correction").
// scales and aggs are caller-owned storage of length numSB.
func analyzeAggregate(block []float64, numSB, sbSize int, agg func([]float64) float64, signCorrect bool, scales, aggs []float64) Result {
	patIdx, best := 0, -1.0
	for s := 0; s < numSB; s++ {
		aggs[s] = agg(block[s*sbSize : (s+1)*sbSize])
		if a := math.Abs(aggs[s]); a > best {
			best = a
			patIdx = s
		}
	}
	ref := aggs[patIdx]
	pat := block[patIdx*sbSize : (patIdx+1)*sbSize]
	for s := 0; s < numSB; s++ {
		c := safeRatio(aggs[s], ref)
		if signCorrect && s != patIdx {
			// AAR and IS aggregates are sign-blind; align the scaled
			// pattern's polarity with the sub-block's dominant sign.
			if dot(pat, block[s*sbSize:(s+1)*sbSize]) < 0 {
				c = -c
			}
		}
		scales[s] = c
	}
	scales[patIdx] = 1
	return Result{PatternIndex: patIdx, Scales: scales, RefPos: -1}
}

// safeRatio returns a/b clamped to [-1, 1]; if b is zero (a degenerate
// all-zero pattern) it returns 0 so downstream error correction absorbs
// everything.
func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	r := a / b
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return r
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func meanAbs(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Abs(x)
	}
	return s / float64(len(xs))
}

func valueRange(xs []float64) float64 {
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return hi - lo
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Deviations returns, for diagnostic purposes, the residuals
// data − S·P for every point in the block under the given analysis.
func Deviations(block []float64, numSB, sbSize int, res Result) []float64 {
	return DeviationsInto(make([]float64, 0, len(block)), block, numSB, sbSize, res)
}

// DeviationsInto appends the residuals data − S·P for every point in
// the block to dst and returns the extended slice; with sufficient
// capacity it does not allocate.
//
//pastri:hotpath
func DeviationsInto(dst []float64, block []float64, numSB, sbSize int, res Result) []float64 {
	pat := block[res.PatternIndex*sbSize : (res.PatternIndex+1)*sbSize]
	for s := 0; s < numSB; s++ {
		c := res.Scales[s]
		sb := block[s*sbSize : (s+1)*sbSize]
		for i, x := range sb {
			dst = append(dst, x-c*pat[i])
		}
	}
	return dst
}
