package core

import "repro/internal/quant"

// BlockType classifies a block by its ECQ range, following Fig. 6 of the
// paper.
type BlockType int

// The four block types observed in ERI data (Sec. IV-C).
const (
	// Type0: all ECQ values are zero; no ECQ bits are spent.
	Type0 BlockType = iota
	// Type1: ECQ values are confined to {−1, 0, +1} (ECb_max = 2).
	Type1
	// Type2: a few bits suffice (ECb_max ≤ 6), mass concentrated low.
	Type2
	// Type3: wide ECQ range (ECb_max > 6).
	Type3
)

// String names the block type as in the paper.
func (t BlockType) String() string {
	switch t {
	case Type0:
		return "Type 0"
	case Type1:
		return "Type 1"
	case Type2:
		return "Type 2"
	case Type3:
		return "Type 3"
	}
	return "Type ?"
}

// ClassifyECbMax maps a block's ECb_max to its type. "The type of the
// block can be determined from the value of ECb_max" (Sec. IV-C).
func ClassifyECbMax(ecbMax uint) BlockType {
	switch {
	case ecbMax <= 1:
		return Type0
	case ecbMax == 2:
		return Type1
	case ecbMax <= 6:
		return Type2
	default:
		return Type3
	}
}

// Stats accumulates the per-block information behind Fig. 6 (ECQ value
// distribution per block type) and the Sec. V-B output-composition
// breakdown (PQ+SQ vs ECQ vs bookkeeping bits). It is filled by
// BlockEncoder when attached via CollectStats; merge per-worker copies
// with Merge.
type Stats struct {
	Blocks      uint64          // total blocks
	TypeCount   [4]uint64       // blocks per type
	BinHist     [4][64]uint64   // per-type histogram of ECQ bin numbers
	TotalHist   [64]uint64      // all-blocks histogram of ECQ bin numbers
	PatternBits uint64          // bits spent on PQ
	ScaleBits   uint64          // bits spent on SQ
	ECQBits     uint64          // bits spent on ECQ payloads (incl. sparse flag)
	HeaderBits  uint64          // bits spent on per-block bookkeeping
	ECbMaxHist  map[uint]uint64 // distribution of per-block ECb_max
	// SparseBlocks counts blocks that chose the sparse (index,value)
	// ECQ representation over the dense tree encoding (Sec. IV-C).
	SparseBlocks uint64
}

// NewStats returns an empty accumulator.
func NewStats() *Stats {
	return &Stats{ECbMaxHist: make(map[uint]uint64)} //lint:hotalloc2-ok one histogram map per stream accumulator
}

// recordBlock folds one block into the accumulator. nzQ holds the
// block's nonzero quanta and n its size, so the n − len(nzQ) zero
// quanta are counted in bin 1 (quant.BitsForValue(0)) at once.
func (s *Stats) recordBlock(nzQ []int64, n int, ecbMax uint, pqBits, sqBits, ecqBits, headerBits uint64, sparse bool) {
	if sparse {
		s.SparseBlocks++
	}
	s.Blocks++
	t := ClassifyECbMax(ecbMax)
	s.TypeCount[t]++
	zeros := uint64(n - len(nzQ))
	s.BinHist[t][1] += zeros
	s.TotalHist[1] += zeros
	for _, v := range nzQ {
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

// Merge folds other into s.
func (s *Stats) Merge(other *Stats) {
	if other == nil {
		return
	}
	s.Blocks += other.Blocks
	for i := range s.TypeCount {
		s.TypeCount[i] += other.TypeCount[i]
		for j := range s.BinHist[i] {
			s.BinHist[i][j] += other.BinHist[i][j]
		}
	}
	for j := range s.TotalHist {
		s.TotalHist[j] += other.TotalHist[j]
	}
	s.PatternBits += other.PatternBits
	s.ScaleBits += other.ScaleBits
	s.ECQBits += other.ECQBits
	s.HeaderBits += other.HeaderBits
	if s.ECbMaxHist == nil {
		s.ECbMaxHist = make(map[uint]uint64) //lint:hotalloc2-ok lazy init, at most once per accumulator
	}
	for k, v := range other.ECbMaxHist { //lint:detlint-ok map-to-map addition is commutative; iteration order cannot change the result
		s.ECbMaxHist[k] += v
	}
	s.SparseBlocks += other.SparseBlocks
}

// PayloadBits returns total bits across all categories.
func (s *Stats) PayloadBits() uint64 {
	return s.PatternBits + s.ScaleBits + s.ECQBits + s.HeaderBits
}

// Fractions returns the share of output taken by PQ+SQ, ECQ and
// bookkeeping. Sec. V-B reports PQ+SQ ≈ 20–30 %, ECQ ≈ 70–80 %,
// bookkeeping < 0.5 % for ERI workloads.
func (s *Stats) Fractions() (patternScale, ecq, bookkeeping float64) {
	total := float64(s.PayloadBits())
	if total == 0 {
		return 0, 0, 0
	}
	return float64(s.PatternBits+s.ScaleBits) / total,
		float64(s.ECQBits) / total,
		float64(s.HeaderBits) / total
}
