package encoding

import (
	"math/bits"
)

// CostCounts accumulates, in a single pass over the ECQ codes, every
// statistic needed to price all candidate encoding methods and the
// sparse representation: the zero/±1 populations and the running Tree 4
// bit total. BlockEncoder folds ObserveNonZero into its quantization
// loop and the zeros in with AddZeros, so method selection costs no
// extra scan at all.
type CostCounts struct {
	N      uint64 // values observed
	Zero   uint64 // values == 0
	One    uint64 // values == +1
	NegOne uint64 // values == -1
	tree4  uint64 // Tree 4 bits contributed by nonzero values
}

// ObserveNonZero folds one nonzero value into the counts and returns
// its bin number (identical to quant.BitsForValue), so a caller that
// also needs ECb_max gets it from the same classification. The
// compression path runs it per retained quantum after its zero fast
// path has already skipped the (overwhelming) zero population; those
// are folded in wholesale with AddZeros. Calling it with v == 0
// corrupts the counts.
func (c *CostCounts) ObserveNonZero(v int64) uint {
	c.N++
	a := uint64(v)
	if v < 0 {
		a = uint64(-v)
		if v == -1 {
			c.NegOne++
		}
	} else if v == 1 {
		c.One++
	}
	bin := uint(bits.Len64(a)) + 1
	// Tree 4 spends bin bits on the unary prefix and bin-1 payload bits
	// for every nonzero value (bin >= 2).
	c.tree4 += uint64(2*bin - 1)
	return bin
}

// AddZeros folds k zero-valued observations into the counts at once.
// All counts are commutative sums, so the zeros may be added anywhere
// in the observation order and yield the same CostSet.
func (c *CostCounts) AddZeros(k uint64) {
	c.N += k
	c.Zero += k
}

// CostSet holds the exact encoded size, in bits, of one ECQ slice under
// every method in Methods plus the sparse (index, value) representation:
// a count field of countBits, then per nonzero an index of idxBits and
// a value of ecbMax bits. Each method's entry equals what CostBits
// would report.
type CostSet struct {
	Fixed  uint64
	Tree1  uint64
	Tree2  uint64
	Tree3  uint64
	Tree4  uint64
	Tree5  uint64
	Sparse uint64
}

// Bits returns the cost for method m.
func (s CostSet) Bits(m Method) uint64 {
	switch m {
	case Fixed:
		return s.Fixed
	case Tree1:
		return s.Tree1
	case Tree2:
		return s.Tree2
	case Tree3:
		return s.Tree3
	case Tree4:
		return s.Tree4
	case Tree5:
		return s.Tree5
	}
	panic("encoding: unknown method in CostSet.Bits") //lint:nopanic-ok programmer error: Methods is the full domain
}

// CostSet prices every method from the accumulated counts. ecbMax
// follows the CostBits contract; idxBits and countBits size the sparse
// index and count fields. Everything is O(1) algebra over the counts:
// only ObserveNonZero and AddZeros touch the data.
func (c *CostCounts) CostSet(ecbMax, idxBits, countBits uint) CostSet {
	nz := c.N - c.Zero
	other := nz - c.One - c.NegOne
	e := uint64(ecbMax)
	s := CostSet{
		Fixed:  c.N * e,
		Tree1:  c.Zero + nz*(1+e),
		Tree2:  c.Zero + 2*c.One + 3*c.NegOne + other*(3+e),
		Tree3:  c.Zero + 3*(c.One+c.NegOne) + other*(2+e),
		Tree4:  c.Zero + c.tree4,
		Sparse: uint64(countBits) + nz*uint64(idxBits+ecbMax),
	}
	if ecbMax <= 2 {
		s.Tree5 = c.Zero + 2*nz
	} else {
		s.Tree5 = s.Tree3
	}
	return s
}
