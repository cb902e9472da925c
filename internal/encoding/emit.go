package encoding

import (
	"fmt"

	"repro/internal/bitio"
)

// Emission API. The block encoder never materializes a dense ECQ
// slice: it carries the block's nonzero quanta as a compact (index,
// value) list and knows every zero run from the index gaps. The
// emitters here accept exactly that shape. The per-value helpers below
// hold each method's code table once; ValueEmitter streams a block
// through them, and EncodeList and EncodeSparseList pack whole lists.
// The tests hold all three to symbol-at-a-time reference coders over
// the equivalent dense slice.

// emitTree1Value writes one nonzero value's Tree 1 code.
//
//pastri:hotpath
func emitTree1Value(w *bitio.Writer, v int64, ecbMax uint) {
	if ecbMax < 64 {
		// "1" + value as one (1+ecbMax)-bit pattern.
		w.WriteBits(1<<ecbMax|uint64(v)&((1<<ecbMax)-1), 1+ecbMax)
	} else {
		w.WriteBit(1)
		w.WriteSigned(v, ecbMax)
	}
}

// emitTree2Value writes one nonzero value's Tree 2 code.
//
//pastri:hotpath
func emitTree2Value(w *bitio.Writer, v int64, ecbMax uint) {
	switch v {
	case 1:
		w.WriteBits(0b10, 2)
	case -1:
		w.WriteBits(0b110, 3)
	default:
		if ecbMax <= 61 {
			w.WriteBits(0b111<<ecbMax|uint64(v)&((1<<ecbMax)-1), 3+ecbMax)
		} else {
			w.WriteBits(0b111, 3)
			w.WriteSigned(v, ecbMax)
		}
	}
}

// emitTree3Value writes one nonzero value's Tree 3 code.
//
//pastri:hotpath
func emitTree3Value(w *bitio.Writer, v int64, ecbMax uint) {
	switch v {
	case 1:
		w.WriteBits(0b110, 3)
	case -1:
		w.WriteBits(0b111, 3)
	default:
		if ecbMax <= 62 {
			// "10" + value as one (2+ecbMax)-bit pattern.
			w.WriteBits(0b10<<ecbMax|uint64(v)&((1<<ecbMax)-1), 2+ecbMax)
		} else {
			w.WriteBits(0b10, 2)
			w.WriteSigned(v, ecbMax)
		}
	}
}

// emitTree5NarrowValue writes one nonzero value's Tree 5 code for
// ECb_max <= 2, where only ±1 exist.
//
//pastri:hotpath
func emitTree5NarrowValue(w *bitio.Writer, v int64) {
	switch v {
	case 1:
		w.WriteBits(0b10, 2)
	case -1:
		w.WriteBits(0b11, 2)
	default:
		panic(fmt.Sprintf("encoding: value %d exceeds ECb_max=2", v)) //lint:nopanic-ok unreachable: quantizer clamps error-correction values to ECb_max
	}
}

// ValueEmitter streams one block's ECQ symbols without a materialized
// slice. The caller announces runs of zero quanta (Zeros) and single
// nonzero quanta (Value) in index order, under one method and ECb_max.
type ValueEmitter struct {
	W      *bitio.Writer
	M      Method
	ECbMax uint
}

// Zeros emits k zero-valued symbols. Under the tree coders a zero is
// one zero bit; under Fixed it is ECbMax zero bits — either way the
// run is pure zero bits, written in word-sized chunks.
//
//pastri:hotpath
func (e ValueEmitter) Zeros(k int) {
	if k <= 0 {
		return
	}
	if e.M == Fixed {
		k *= int(e.ECbMax)
	}
	writeZeroRun(e.W, k)
}

// Value emits one nonzero symbol.
//
//pastri:hotpath
func (e ValueEmitter) Value(v int64) {
	switch e.M {
	case Fixed:
		e.W.WriteSigned(v, e.ECbMax)
	case Tree1:
		emitTree1Value(e.W, v, e.ECbMax)
	case Tree2:
		emitTree2Value(e.W, v, e.ECbMax)
	case Tree3:
		emitTree3Value(e.W, v, e.ECbMax)
	case Tree4:
		encodeTree4Value(e.W, v)
	case Tree5:
		if e.ECbMax <= 2 {
			emitTree5NarrowValue(e.W, v)
		} else {
			emitTree3Value(e.W, v, e.ECbMax)
		}
	default:
		panic(fmt.Sprintf("encoding: unknown method %v", e.M)) //lint:nopanic-ok unreachable: core.Config validates the method at the API boundary
	}
}

// EncodeSparseList writes the sparse (count, then per-nonzero
// index+value) representation straight from a gathered nonzero list:
// idxs must be the strictly ascending block positions of the nonzero
// quanta and vals their values. Combined (index, value) codewords are
// packed into a local 64-bit register before spilling, like bitio's *N
// kernels.
//
//pastri:hotpath
func EncodeSparseList(w *bitio.Writer, idxs []int32, vals []int64, ecbMax, idxBits, countBits uint) {
	w.WriteBits(uint64(len(idxs)), countBits)
	vals = vals[:len(idxs)] // one bounds check here buys vals[k] BCE below
	if cl := idxBits + ecbMax; cl <= 64 && ecbMax < 64 {
		mask := uint64(1)<<ecbMax - 1
		var acc uint64
		var used uint
		for k, idx := range idxs {
			if used+cl > 64 {
				w.WriteBits(acc, used)
				acc, used = 0, 0
			}
			acc = acc<<cl | uint64(idx)<<ecbMax | uint64(vals[k])&mask //lint:shiftwidth-ok cl <= 64 with used+cl <= 64, so both shifts stay below 64
			used += cl
		}
		if used > 0 {
			w.WriteBits(acc, used)
		}
		return
	}
	for k, idx := range idxs {
		w.WriteBits(uint64(idx), idxBits)
		w.WriteSigned(vals[k], ecbMax)
	}
}

// EncodeList writes the dense ECQ representation of a block of n quanta
// straight from its gathered nonzero list (idxs strictly ascending, vals
// their values) under method m. The shipped Tree 5 / Tree 3 codes go
// through packed loops that assemble zero runs and codewords in a local
// 64-bit register (one WriteBits per ~64 emitted bits); the remaining
// methods stream through the per-value emitters.
//
//pastri:hotpath
func EncodeList(w *bitio.Writer, idxs []int32, vals []int64, n int, ecbMax uint, m Method) {
	switch {
	case m == Tree5 && ecbMax <= 2:
		encodeTree5NarrowList(w, idxs, vals, n)
		return
	case (m == Tree3 || m == Tree5) && ecbMax <= 62:
		encodeTree3List(w, idxs, vals, n, ecbMax)
		return
	}
	em := ValueEmitter{W: w, M: m, ECbMax: ecbMax}
	prev := 0
	for k, idx := range idxs {
		em.Zeros(int(idx) - prev)
		em.Value(vals[k])
		prev = int(idx) + 1
	}
	em.Zeros(n - prev)
}

// appendZeroBits folds g zero bits into the (acc, used) register,
// spilling full words as they fill. The register invariant throughout
// the packed emitters: acc holds `used` pending bits, right-aligned.
//
//pastri:hotpath
func appendZeroBits(w *bitio.Writer, acc uint64, used uint, g int) (uint64, uint) {
	for g > 0 {
		z := 64 - used
		if z > uint(g) {
			z = uint(g)
		}
		acc <<= z //lint:shiftwidth-ok z == 64 only with used == 0 and acc == 0; Go defines over-wide shifts as 0
		used += z
		g -= int(z)
		if used == 64 {
			w.WriteBits(acc, 64)
			acc, used = 0, 0
		}
	}
	return acc, used
}

// encodeTree3List is the packed Tree 3 (and wide Tree 5) list emitter
// for ecbMax <= 62, where every codeword — 1-bit zero, 3-bit ±1, or
// (2+ecbMax)-bit "10"+value — fits the packing register alongside at
// least one more bit.
//
//pastri:hotpath
func encodeTree3List(w *bitio.Writer, idxs []int32, vals []int64, n int, ecbMax uint) {
	vals = vals[:len(idxs)]       // one bounds check here buys vals[k] BCE below
	mask := uint64(1)<<ecbMax - 1 //lint:shiftwidth-ok ecbMax <= 62 by the caller's dispatch
	wide := 2 + ecbMax
	var acc uint64
	var used uint
	prev := 0
	for k, idx := range idxs {
		g := int(idx) - prev
		prev = int(idx) + 1
		v := vals[k]
		code, cl := uint64(0b110), uint(3)
		if v == 1 || v == -1 {
			// 0b110 for +1, 0b111 for -1: the sign bit is the low bit.
			code |= uint64(v) >> 63
		} else {
			code, cl = 0b10<<ecbMax|uint64(v)&mask, wide //lint:shiftwidth-ok ecbMax <= 62 by the caller's dispatch
		}
		// Fast path — the overwhelming case: the zero gap and the
		// codeword land in the register with ONE shift.
		if tot := uint(g) + cl; used+tot <= 64 && g >= 0 {
			acc = acc<<tot | code //lint:shiftwidth-ok tot <= 64 by the branch condition; == 64 only with used == 0, defined in Go
			used += tot
			continue
		}
		acc, used = appendZeroBits(w, acc, used, g)
		if used+cl > 64 {
			w.WriteBits(acc, used)
			acc, used = 0, 0
		}
		acc = acc<<cl | code //lint:shiftwidth-ok cl <= 64 and used+cl <= 64 after the spill above
		used += cl
	}
	acc, used = appendZeroBits(w, acc, used, n-prev)
	if used > 0 {
		w.WriteBits(acc, used)
	}
}

// encodeTree5NarrowList is the packed narrow Tree 5 list emitter
// (ecbMax <= 2): zeros are "0", +1 is "10", -1 is "11".
//
//pastri:hotpath
func encodeTree5NarrowList(w *bitio.Writer, idxs []int32, vals []int64, n int) {
	vals = vals[:len(idxs)] // one bounds check here buys vals[k] BCE below
	var acc uint64
	var used uint
	prev := 0
	for k, idx := range idxs {
		acc, used = appendZeroBits(w, acc, used, int(idx)-prev)
		prev = int(idx) + 1
		code := uint64(0b10)
		switch vals[k] {
		case 1:
		case -1:
			code = 0b11
		default:
			panic(fmt.Sprintf("encoding: value %d exceeds ECb_max=2", vals[k])) //lint:nopanic-ok unreachable: quantizer clamps error-correction values to ECb_max
		}
		if used+2 > 64 {
			w.WriteBits(acc, used)
			acc, used = 0, 0
		}
		acc = acc<<2 | code
		used += 2
	}
	acc, used = appendZeroBits(w, acc, used, n-prev)
	if used > 0 {
		w.WriteBits(acc, used)
	}
}
