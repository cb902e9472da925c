package bitio

// Batch emission API. The per-call Write* methods each pay one
// accumulator round-trip (shift, fill test, possible word flush) per
// code. The *N variants below pack as many codewords as fit into a
// local 64-bit register first and spill it with a single WriteBits per
// ~64 emitted bits, which matters for the fixed-width PQ/SQ sections
// and the sparse codeword streams of the fused compression path. Each
// variant produces a bitstream identical to calling its per-code
// counterpart once per element: the stream is a pure concatenation of
// codes, so regrouping the WriteBits calls cannot change any bit.

// WriteBitsN appends the low `width` bits of every value, MSB-first,
// exactly as if WriteBits(v, width) were called once per element.
// width must be in [0, 64].
//
//pastri:hotpath
func (w *Writer) WriteBitsN(vals []uint64, width uint) {
	if width == 0 {
		return
	}
	if width > 32 {
		// At most one code fits the register; packing cannot win.
		for _, v := range vals {
			w.WriteBits(v, width)
		}
		return
	}
	mask := uint64(1)<<width - 1
	var acc uint64
	var used uint
	for _, v := range vals {
		acc = acc<<width | v&mask
		used += width
		if used > 64-width {
			w.WriteBits(acc, used)
			acc, used = 0, 0
		}
	}
	if used > 0 {
		w.WriteBits(acc, used)
	}
}

// WriteSignedN appends every value as a two's-complement integer of
// `width` bits, exactly as if WriteSigned(v, width) were called once
// per element. Each v must fit width bits.
//
//pastri:hotpath
func (w *Writer) WriteSignedN(vals []int64, width uint) {
	if width == 0 {
		return
	}
	if width > 32 {
		for _, v := range vals {
			w.WriteSigned(v, width)
		}
		return
	}
	mask := uint64(1)<<width - 1
	var acc uint64
	var used uint
	for _, v := range vals {
		acc = acc<<width | uint64(v)&mask
		used += width
		if used > 64-width {
			w.WriteBits(acc, used)
			acc, used = 0, 0
		}
	}
	if used > 0 {
		w.WriteBits(acc, used)
	}
}

// WriteUnaryN appends one unary code (n ones then a stop bit) per
// element, exactly as if WriteUnary were called once per element.
// Short codes — the overwhelming case for ECQ bin prefixes — are
// packed into the local register; codes of 63+ ones spill through
// WriteUnary's own word-sized path.
//
//pastri:hotpath
func (w *Writer) WriteUnaryN(ns []uint) {
	var acc uint64
	var used uint
	for _, n := range ns {
		if n >= 63 {
			if used > 0 {
				w.WriteBits(acc, used)
				acc, used = 0, 0
			}
			w.WriteUnary(n)
			continue
		}
		if used+n+1 > 64 {
			w.WriteBits(acc, used)
			acc, used = 0, 0
		}
		// n ones and the stop bit as one (n+1)-bit pattern.
		acc = acc<<(n+1) | (uint64(1)<<(n+1) - 2)
		used += n + 1
	}
	if used > 0 {
		w.WriteBits(acc, used)
	}
}
