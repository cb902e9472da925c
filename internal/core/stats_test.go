package core

import (
	"math"
	"testing"

	"repro/internal/quant"
)

// Direct unit tests for the Stats accumulator: the integration tests
// exercise it through whole-stream compression, which never hits the
// degenerate shapes (empty ECQ slice, all-zero blocks, single
// sub-block configs) or Merge's nil-map path in isolation.

// recordDense feeds recordBlock a block described by its dense ECQ
// slice, the shape the tests below are written in.
func (s *Stats) recordDense(ecq []int64, ecbMax uint, pqBits, sqBits, ecqBits, headerBits uint64, sparse bool) {
	_, nz := gatherNonZero(ecq)
	s.recordBlock(nz, len(ecq), ecbMax, pqBits, sqBits, ecqBits, headerBits, sparse)
}

func TestClassifyECbMaxEdges(t *testing.T) {
	// core_test.go covers the interior cut points; this pins the ends.
	if got := ClassifyECbMax(0); got != Type0 {
		t.Errorf("ClassifyECbMax(0) = %v, want Type0", got)
	}
	if got := ClassifyECbMax(64); got != Type3 {
		t.Errorf("ClassifyECbMax(64) = %v, want Type3", got)
	}
	if s := BlockType(9).String(); s != "Type ?" {
		t.Errorf("out-of-range BlockType prints %q", s)
	}
}

func TestRecordBlockEmptyECQ(t *testing.T) {
	// An empty ECQ slice (e.g. a fully pattern-explained block in a
	// degenerate config) must still count the block and its bits.
	s := NewStats()
	s.recordDense(nil, 0, 10, 20, 0, 5, false)
	if s.Blocks != 1 || s.TypeCount[Type0] != 1 {
		t.Fatalf("blocks/type = %d/%v", s.Blocks, s.TypeCount)
	}
	for b, n := range s.TotalHist {
		if n != 0 {
			t.Fatalf("TotalHist[%d] = %d for empty ECQ", b, n)
		}
	}
	if s.PayloadBits() != 35 {
		t.Fatalf("PayloadBits = %d, want 35", s.PayloadBits())
	}
}

func TestRecordBlockAllZero(t *testing.T) {
	// All-zero ECQ: a Type 0 block. Every value lands in bin 1, which
	// holds {0} in the paper's Fig. 6 numbering.
	s := NewStats()
	ecq := make([]int64, 36)
	s.recordDense(ecq, 1, 4, 8, 0, 2, false)
	if got := ClassifyECbMax(1); got != Type0 {
		t.Fatalf("ecbMax 1 classified %v", got)
	}
	if s.TypeCount[Type0] != 1 || s.BinHist[Type0][1] != 36 || s.TotalHist[1] != 36 {
		t.Fatalf("zero-block histograms wrong: %v / %d", s.TypeCount, s.TotalHist[1])
	}
	if s.ECbMaxHist[1] != 1 {
		t.Fatalf("ECbMaxHist = %v", s.ECbMaxHist)
	}
	if s.SparseBlocks != 0 {
		t.Fatalf("SparseBlocks = %d", s.SparseBlocks)
	}
}

func TestRecordBlockSingleSubBlock(t *testing.T) {
	// A single sub-block "pattern" (NumSB=1): the whole block is the
	// pattern, ECQ carries one entry per point.
	s := NewStats()
	ecq := []int64{0, -1, 1, 3, -4}
	s.recordDense(ecq, 3, 64, 11, 15, 2, true)
	if s.TypeCount[Type2] != 1 {
		t.Fatalf("TypeCount = %v, want one Type2", s.TypeCount)
	}
	if s.SparseBlocks != 1 {
		t.Fatalf("SparseBlocks = %d, want 1", s.SparseBlocks)
	}
	// Bin occupancy mirrors quant.BitsForValue exactly.
	wantBins := map[uint]uint64{}
	for _, v := range ecq {
		wantBins[quant.BitsForValue(v)]++
	}
	for b, n := range wantBins {
		if s.TotalHist[b] != n || s.BinHist[Type2][b] != n {
			t.Fatalf("bin %d: total %d / type %d, want %d",
				b, s.TotalHist[b], s.BinHist[Type2][b], n)
		}
	}
}

func TestStatsMergeNilAndEmptyMap(t *testing.T) {
	s := NewStats()
	s.recordDense([]int64{1}, 2, 1, 2, 3, 4, false)
	before := *s
	s.Merge(nil) // no-op
	if s.Blocks != before.Blocks || s.PayloadBits() != before.PayloadBits() {
		t.Fatal("Merge(nil) changed the accumulator")
	}

	// Merging into a zero-value Stats (nil ECbMaxHist) must allocate
	// the map rather than panic.
	var dst Stats
	other := NewStats()
	other.recordDense([]int64{0, 7}, 4, 5, 6, 7, 8, true)
	dst.Merge(other)
	if dst.Blocks != 1 || dst.ECbMaxHist[4] != 1 || dst.SparseBlocks != 1 {
		t.Fatalf("zero-value Merge: %+v", dst)
	}
	if dst.PayloadBits() != 5+6+7+8 {
		t.Fatalf("PayloadBits = %d", dst.PayloadBits())
	}
}

func TestStatsFractionsZeroAndExact(t *testing.T) {
	var s Stats
	p, e, b := s.Fractions()
	if p != 0 || e != 0 || b != 0 {
		t.Fatalf("empty Fractions = %v %v %v", p, e, b)
	}
	s.PatternBits, s.ScaleBits, s.ECQBits, s.HeaderBits = 10, 10, 70, 10
	p, e, b = s.Fractions()
	if math.Abs(p-0.2) > 1e-12 || math.Abs(e-0.7) > 1e-12 || math.Abs(b-0.1) > 1e-12 {
		t.Fatalf("Fractions = %v %v %v", p, e, b)
	}
}
