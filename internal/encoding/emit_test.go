package encoding

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bitio"
)

// randomECQ builds a dense quanta slice shaped like real ECQ data:
// mostly zeros, a ±1-heavy nonzero population, occasional wide values,
// all within the bin budget of ecbMax.
func randomECQ(rng *rand.Rand, n int, ecbMax uint, zeroFrac float64) []int64 {
	vals := make([]int64, n)
	maxAbs := int64(1)
	if ecbMax >= 2 {
		if ecbMax >= 63 {
			maxAbs = int64(1)<<62 - 1
		} else {
			maxAbs = int64(1)<<(ecbMax-1) - 1
		}
	}
	for i := range vals {
		if rng.Float64() < zeroFrac {
			continue
		}
		switch rng.Intn(3) {
		case 0:
			vals[i] = 1
		case 1:
			vals[i] = -1
		default:
			v := rng.Int63n(maxAbs) + 1
			if rng.Intn(2) == 0 {
				v = -v
			}
			vals[i] = v
		}
	}
	return vals
}

// gather splits a dense slice into the (ascending index, value) nonzero
// list the streaming emitters consume.
func gather(vals []int64) ([]int32, []int64) {
	var idxs []int32
	var nz []int64
	for i, v := range vals {
		if v != 0 {
			idxs = append(idxs, int32(i))
			nz = append(nz, v)
		}
	}
	return idxs, nz
}

// driveEmitter replays a dense slice through a ValueEmitter the way the
// fused encoder does: gaps between nonzeros as Zeros, nonzeros as Value.
func driveEmitter(e ValueEmitter, vals []int64) {
	idxs, nz := gather(vals)
	prev := 0
	for k, idx := range idxs {
		e.Zeros(int(idx) - prev)
		e.Value(nz[k])
		prev = int(idx) + 1
	}
	e.Zeros(len(vals) - prev)
}

// TestValueEmitterMatchesEncode drives the per-value emitters against
// the symbol-at-a-time referenceEncode over the equivalent dense slice.
func TestValueEmitterMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, m := range Methods {
		for _, ecbMax := range []uint{2, 3, 6, 11, 31, 62, 63, 64} {
			for trial := 0; trial < 30; trial++ {
				n := rng.Intn(400)
				zeroFrac := []float64{0, 0.5, 0.95, 1}[rng.Intn(4)]
				vals := randomECQ(rng, n, ecbMax, zeroFrac)
				if m == Tree5 && ecbMax <= 2 {
					// Narrow Tree 5 only admits ±1.
					for i, v := range vals {
						if v > 1 {
							vals[i] = 1
						} else if v < -1 {
							vals[i] = -1
						}
					}
				}

				ref := &bitio.Writer{}
				referenceEncode(ref, vals, ecbMax, m)
				got := &bitio.Writer{}
				driveEmitter(ValueEmitter{W: got, M: m, ECbMax: ecbMax}, vals)
				if ref.BitLen() != got.BitLen() || !bytes.Equal(ref.Bytes(), got.Bytes()) {
					t.Fatalf("%v ecbMax=%d n=%d zeroFrac=%g: emitter stream differs from the reference",
						m, ecbMax, n, zeroFrac)
				}
			}
		}
	}
}

// TestEncodeListMatchesEncode drives the list-shaped dense emitter —
// packed register loops for Tree 3/Tree 5, emitter fallback for the
// rest — against the symbol-at-a-time referenceEncode over the
// equivalent dense slice.
func TestEncodeListMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, m := range Methods {
		for _, ecbMax := range []uint{2, 3, 6, 11, 31, 62, 63, 64} {
			for trial := 0; trial < 30; trial++ {
				n := rng.Intn(400)
				zeroFrac := []float64{0, 0.5, 0.95, 1}[rng.Intn(4)]
				vals := randomECQ(rng, n, ecbMax, zeroFrac)
				if m == Tree5 && ecbMax <= 2 {
					for i, v := range vals {
						if v > 1 {
							vals[i] = 1
						} else if v < -1 {
							vals[i] = -1
						}
					}
				}

				ref := &bitio.Writer{}
				referenceEncode(ref, vals, ecbMax, m)
				idxs, nz := gather(vals)
				got := &bitio.Writer{}
				EncodeList(got, idxs, nz, n, ecbMax, m)
				if ref.BitLen() != got.BitLen() || !bytes.Equal(ref.Bytes(), got.Bytes()) {
					t.Fatalf("%v ecbMax=%d n=%d zeroFrac=%g: EncodeList stream differs from the reference",
						m, ecbMax, n, zeroFrac)
				}
			}
		}
	}
}

// referenceEncodeSparse is the symbol-at-a-time sparse coder: the
// nonzero count, then each nonzero's index and value as separate
// fields.
func referenceEncodeSparse(w *bitio.Writer, vals []int64, ecbMax, idxBits, countBits uint) {
	nnz := uint64(0)
	for _, v := range vals {
		if v != 0 {
			nnz++
		}
	}
	w.WriteBits(nnz, countBits)
	for i, v := range vals {
		if v != 0 {
			w.WriteBits(uint64(i), idxBits)
			w.WriteSigned(v, ecbMax)
		}
	}
}

// TestEncodeSparseListMatchesEncodeSparse drives the packed sparse list
// emitter against referenceEncodeSparse.
func TestEncodeSparseListMatchesEncodeSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, ecbMax := range []uint{2, 3, 11, 31, 62, 63} {
		for trial := 0; trial < 50; trial++ {
			n := 1 + rng.Intn(400)
			vals := randomECQ(rng, n, ecbMax, 0.9)
			idxBits := IndexBits(n)
			countBits := IndexBits(n + 1)

			ref := &bitio.Writer{}
			referenceEncodeSparse(ref, vals, ecbMax, idxBits, countBits)
			idxs, nz := gather(vals)
			got := &bitio.Writer{}
			EncodeSparseList(got, idxs, nz, ecbMax, idxBits, countBits)
			if ref.BitLen() != got.BitLen() || !bytes.Equal(ref.Bytes(), got.Bytes()) {
				t.Fatalf("ecbMax=%d n=%d: list stream differs from the reference", ecbMax, n)
			}
		}
	}
}

// TestEncodeSparseListWideSplit drives the split (index, then value)
// branch, which needs idxBits+ecbMax > 64.
func TestEncodeSparseListWideSplit(t *testing.T) {
	vals := []int64{0, 1, 0, -5, 7}
	idxBits, ecbMax, countBits := uint(3), uint(63), uint(3)
	ref := &bitio.Writer{}
	referenceEncodeSparse(ref, vals, ecbMax, idxBits, countBits)
	idxs, nz := gather(vals)
	got := &bitio.Writer{}
	EncodeSparseList(got, idxs, nz, ecbMax, idxBits, countBits)
	if ref.BitLen() != got.BitLen() || !bytes.Equal(ref.Bytes(), got.Bytes()) {
		t.Fatal("wide-split list stream differs from the reference")
	}
}

func TestObserveNonZeroAndAddZerosMatchObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		vals := randomECQ(rng, rng.Intn(500), 40, 0.8)

		var ref CostCounts
		ecbRef := uint(1)
		for _, v := range vals {
			if b := ref.Observe(v); b > ecbRef {
				ecbRef = b
			}
		}

		// The fused accounting: classify nonzeros individually, fold the
		// zero population in at the end.
		var got CostCounts
		ecbGot := uint(1)
		zeros := uint64(0)
		for _, v := range vals {
			if v == 0 {
				zeros++
				continue
			}
			if b := got.ObserveNonZero(v); b > ecbGot {
				ecbGot = b
			}
		}
		got.AddZeros(zeros)

		if got != ref {
			t.Fatalf("trial %d: counts differ: fused %+v, reference %+v", trial, got, ref)
		}
		if ecbGot != ecbRef {
			t.Fatalf("trial %d: ecbMax differs: fused %d, reference %d", trial, ecbGot, ecbRef)
		}
		idxBits, countBits := uint(10), uint(11)
		if got.CostSet(ecbRef, idxBits, countBits) != ref.CostSet(ecbRef, idxBits, countBits) {
			t.Fatalf("trial %d: CostSet differs", trial)
		}
	}
}
