package encoding

import (
	"math/rand"
	"testing"

	"repro/internal/bitio"
	"repro/internal/quant"
)

// Test-side entry points to the cost model. Compression folds nonzero
// quanta in with ObserveNonZero and the zeros with AddZeros; the tests
// price whole slices one value at a time.

// Reset clears the counts for reuse.
func (c *CostCounts) Reset() { *c = CostCounts{} }

// Observe folds one value, zero or not, into the counts and returns its
// bin number.
func (c *CostCounts) Observe(v int64) uint {
	if v == 0 {
		c.AddZeros(1)
		return 1
	}
	return c.ObserveNonZero(v)
}

// Costs prices vals under every method and the sparse path in one scan.
func Costs(vals []int64, ecbMax, idxBits, countBits uint) CostSet {
	var c CostCounts
	for _, v := range vals {
		c.Observe(v)
	}
	return c.CostSet(ecbMax, idxBits, countBits)
}

// SparseCostBits returns the bits a sparse (index, value) representation
// of vals would need: a count field plus, per nonzero, an index of
// idxBits bits and a value of ecbMax bits. countBits must be wide enough
// for len(vals).
func SparseCostBits(vals []int64, ecbMax, idxBits, countBits uint) uint64 {
	nnz := uint64(0)
	for _, v := range vals {
		if v != 0 {
			nnz++
		}
	}
	return uint64(countBits) + nnz*uint64(idxBits+ecbMax)
}

// ecqShaped returns a slice with ECQ-like statistics: mostly zeros,
// many ±1, occasional wide values.
func ecqShaped(rng *rand.Rand, n int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		switch rng.Intn(10) {
		case 0:
			vals[i] = 1
		case 1:
			vals[i] = -1
		case 2:
			vals[i] = rng.Int63n(1<<20) - 1<<19
		case 3:
			vals[i] = rng.Int63() - rng.Int63()
		}
	}
	return vals
}

// TestCostSetMatchesCostBits checks the single-scan CostSet against the
// per-method reference costers on ECQ-shaped and adversarial inputs.
func TestCostSetMatchesCostBits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inputs := [][]int64{
		nil,
		{0},
		{1, -1, 0, 2, -2},
		{1 << 40, -(1 << 40)},
	}
	for i := 0; i < 50; i++ {
		inputs = append(inputs, ecqShaped(rng, rng.Intn(400)+1))
	}
	for _, vals := range inputs {
		for _, ecb := range []uint{1, 2, 3, maxBin(vals), 33, 64} {
			idxBits := IndexBits(len(vals))
			countBits := IndexBits(len(vals) + 1)
			set := Costs(vals, ecb, idxBits, countBits)
			for _, m := range Methods {
				if got, want := set.Bits(m), CostBits(vals, ecb, m); got != want {
					t.Fatalf("CostSet %v (ecb=%d, n=%d) = %d, want %d", m, ecb, len(vals), got, want)
				}
			}
			if got, want := set.Sparse, SparseCostBits(vals, ecb, idxBits, countBits); got != want {
				t.Fatalf("CostSet sparse (ecb=%d, n=%d) = %d, want %d", ecb, len(vals), got, want)
			}
		}
	}
}

// TestObserveReturnsBin pins Observe's bin classification to
// quant.BitsForValue.
func TestObserveReturnsBin(t *testing.T) {
	vals := []int64{0, 1, -1, 2, -2, 3, 127, -128, 1 << 30, -(1 << 62)}
	var c CostCounts
	for _, v := range vals {
		if got, want := c.Observe(v), quant.BitsForValue(v); got != want {
			t.Fatalf("Observe(%d) bin = %d, want %d", v, got, want)
		}
	}
	if c.N != uint64(len(vals)) || c.Zero != 1 || c.One != 1 || c.NegOne != 1 {
		t.Fatalf("counts = %+v", c)
	}
	c.Reset()
	if c != (CostCounts{}) {
		t.Fatalf("Reset left %+v", c)
	}
}

// referenceEncode is the symbol-at-a-time coder that the batched
// emitters (ValueEmitter, EncodeList) must reproduce bit for bit.
func referenceEncode(w *bitio.Writer, vals []int64, ecbMax uint, m Method) {
	for _, v := range vals {
		switch m {
		case Fixed:
			w.WriteSigned(v, ecbMax)
		case Tree1:
			if v == 0 {
				w.WriteBit(0)
			} else {
				w.WriteBit(1)
				w.WriteSigned(v, ecbMax)
			}
		case Tree2:
			switch v {
			case 0:
				w.WriteBit(0)
			case 1:
				w.WriteBits(0b10, 2)
			case -1:
				w.WriteBits(0b110, 3)
			default:
				w.WriteBits(0b111, 3)
				w.WriteSigned(v, ecbMax)
			}
		case Tree3:
			switch v {
			case 0:
				w.WriteBit(0)
			case 1:
				w.WriteBits(0b110, 3)
			case -1:
				w.WriteBits(0b111, 3)
			default:
				w.WriteBits(0b10, 2)
				w.WriteSigned(v, ecbMax)
			}
		case Tree4:
			bin := quant.BitsForValue(v)
			w.WriteUnary(bin - 1)
			switch {
			case bin == 1:
			case bin == 2:
				if v == 1 {
					w.WriteBit(0)
				} else {
					w.WriteBit(1)
				}
			default:
				abs, sign := v, uint64(0)
				if v < 0 {
					abs, sign = -v, 1
				}
				lo := int64(1) << (bin - 2)
				w.WriteBits(uint64(abs-lo)<<1|sign, bin-1)
			}
		case Tree5:
			if ecbMax <= 2 {
				switch v {
				case 0:
					w.WriteBit(0)
				case 1:
					w.WriteBits(0b10, 2)
				default:
					w.WriteBits(0b11, 2)
				}
			} else {
				referenceEncode(w, []int64{v}, ecbMax, Tree3)
			}
		}
	}
}
