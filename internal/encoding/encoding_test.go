package encoding

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitio"
	"repro/internal/quant"
)

func maxBin(vals []int64) uint {
	b := uint(1)
	for _, v := range vals {
		if x := quant.BitsForValue(v); x > b {
			b = x
		}
	}
	return b
}

// encodeDense writes the dense slice vals through EncodeList, the way
// the block encoder emits a block's gathered nonzeros.
func encodeDense(w *bitio.Writer, vals []int64, ecbMax uint, m Method) {
	idxs, nz := gather(vals)
	EncodeList(w, idxs, nz, len(vals), ecbMax, m)
}

func roundTrip(t *testing.T, vals []int64, m Method) {
	t.Helper()
	ecb := maxBin(vals)
	w := bitio.NewWriter(64)
	encodeDense(w, vals, ecb, m)
	if got, want := w.BitLen(), CostBits(vals, ecb, m); got != want {
		t.Fatalf("%v: CostBits=%d but encoder wrote %d bits", m, want, got)
	}
	r := bitio.NewReader(w.Bytes())
	dst := make([]int64, len(vals))
	if err := Decode(r, dst, ecb, m); err != nil {
		t.Fatalf("%v: decode: %v", m, err)
	}
	for i := range vals {
		if dst[i] != vals[i] {
			t.Fatalf("%v: dst[%d] = %d, want %d", m, i, dst[i], vals[i])
		}
	}
}

func TestRoundTripAllMethods(t *testing.T) {
	cases := [][]int64{
		{0, 0, 0, 0},
		{0, 1, -1, 0, 1},
		{0, 0, 5, -3, 0, 1, -1, 127, -128},
		{42},
		{-1},
		{0, 1 << 20, -(1 << 20), 3, 0, 0},
	}
	for _, vals := range cases {
		for _, m := range Methods {
			roundTrip(t, vals, m)
		}
	}
}

func TestTree5TernarySpecialCase(t *testing.T) {
	// When ECb_max = 2, Tree 5 must use the optimal {0:1bit, ±1:2bits} code.
	vals := []int64{0, 1, -1, 0, 0, 1}
	if got, want := CostBits(vals, 2, Tree5), uint64(1+2+2+1+1+2); got != want {
		t.Fatalf("Tree5 ternary cost = %d, want %d", got, want)
	}
	roundTrip(t, vals, Tree5)
	// With larger ECb_max it must match Tree 3 exactly.
	vals = []int64{0, 7, -1, 0}
	if CostBits(vals, 4, Tree5) != CostBits(vals, 4, Tree3) {
		t.Fatal("Tree5 should equal Tree3 when ECb_max > 2")
	}
}

func TestTreeCostOrdering(t *testing.T) {
	// On mostly-zero data with rare large outliers (Type 2/3 blocks), the
	// paper's observations must hold: Tree3 beats Tree2 (others one bit
	// cheaper), Tree1 beats Fixed.
	vals := make([]int64, 1000)
	vals[10] = 300
	vals[500] = -211
	vals[700] = 1
	ecb := maxBin(vals)
	c := func(m Method) uint64 { return CostBits(vals, ecb, m) }
	if c(Tree1) >= c(Fixed) {
		t.Errorf("Tree1 (%d) should beat Fixed (%d)", c(Tree1), c(Fixed))
	}
	if c(Tree3) >= c(Tree2) {
		t.Errorf("Tree3 (%d) should beat Tree2 (%d) here", c(Tree3), c(Tree2))
	}
	if c(Tree5) > c(Tree3) {
		t.Errorf("Tree5 (%d) should never lose to Tree3 (%d)", c(Tree5), c(Tree3))
	}
}

func TestTree4BinPayloads(t *testing.T) {
	// Verify specific codes: 0 → 1 bit, ±1 → 3 bits (unary "10" + 1),
	// ±[2,3] → "110" + 2 bits = 5 bits.
	if got := CostBits([]int64{0}, 3, Tree4); got != 1 {
		t.Errorf("Tree4 cost(0) = %d, want 1", got)
	}
	if got := CostBits([]int64{1}, 3, Tree4); got != 3 {
		t.Errorf("Tree4 cost(1) = %d, want 3", got)
	}
	if got := CostBits([]int64{-3}, 3, Tree4); got != 5 {
		t.Errorf("Tree4 cost(-3) = %d, want 5", got)
	}
	roundTrip(t, []int64{0, 1, -1, 2, -2, 3, -3, 4, -4, 7, -7, 8, 1023, -1024}, Tree4)
}

func TestQuickRoundTripRandom(t *testing.T) {
	f := func(seed int64, n uint8, spread uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%300 + 1
		shift := uint(spread % 40)
		vals := make([]int64, count)
		for i := range vals {
			// Mostly zeros with occasional values of varying magnitude —
			// the ECQ distribution shape from Fig. 6.
			if rng.Intn(4) == 0 {
				vals[i] = rng.Int63n(1<<shift+1) - rng.Int63n(1<<shift+1)
			}
		}
		ecb := maxBin(vals)
		for _, m := range Methods {
			w := bitio.NewWriter(0)
			encodeDense(w, vals, ecb, m)
			if w.BitLen() != CostBits(vals, ecb, m) {
				return false
			}
			dst := make([]int64, count)
			if err := Decode(bitio.NewReader(w.Bytes()), dst, ecb, m); err != nil {
				return false
			}
			for i := range vals {
				if dst[i] != vals[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseRoundTrip(t *testing.T) {
	vals := make([]int64, 500)
	vals[3] = -77
	vals[499] = 12
	vals[100] = 1
	ecb := maxBin(vals)
	idxBits := IndexBits(len(vals))
	countBits := IndexBits(len(vals) + 1)
	w := bitio.NewWriter(0)
	idxs, nz := gather(vals)
	EncodeSparseList(w, idxs, nz, ecb, idxBits, countBits)
	if got, want := w.BitLen(), SparseCostBits(vals, ecb, idxBits, countBits); got != want {
		t.Fatalf("sparse cost mismatch: wrote %d, predicted %d", got, want)
	}
	dst := make([]int64, len(vals))
	dst[0] = 999 // must be zeroed by decoder
	if err := DecodeSparse(bitio.NewReader(w.Bytes()), dst, ecb, idxBits, countBits); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if dst[i] != vals[i] {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], vals[i])
		}
	}
}

func TestSparseBeatsDenseWhenVerySparse(t *testing.T) {
	vals := make([]int64, 10000)
	vals[42] = 1 << 30
	ecb := maxBin(vals)
	idxBits := IndexBits(len(vals))
	sparse := SparseCostBits(vals, ecb, idxBits, 32)
	dense := CostBits(vals, ecb, Tree5)
	if sparse >= dense {
		t.Fatalf("sparse (%d) should beat dense (%d) on 1/10000 density", sparse, dense)
	}
}

func TestDecodeSparseCorrupt(t *testing.T) {
	w := bitio.NewWriter(0)
	w.WriteBits(200, 16) // claims 200 nonzeros in a 10-slot block
	dst := make([]int64, 10)
	if err := DecodeSparse(bitio.NewReader(w.Bytes()), dst, 8, 4, 16); err == nil {
		t.Fatal("expected error for oversized sparse count")
	}
}

func TestIndexBits(t *testing.T) {
	cases := map[int]uint{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 256: 8, 257: 9, 6000: 13, 10000: 14}
	for n, want := range cases {
		if got := IndexBits(n); got != want {
			t.Errorf("IndexBits(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestMethodString(t *testing.T) {
	for _, m := range Methods {
		if m.String() == "" {
			t.Errorf("empty string for method %d", int(m))
		}
	}
	if Method(99).String() != "Method(99)" {
		t.Errorf("unknown method string: %q", Method(99).String())
	}
}
