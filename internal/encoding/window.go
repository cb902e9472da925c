package encoding

import (
	"math/bits"

	"repro/internal/bitio"
)

// Word-window decoding. The ECQ coders every default stream uses —
// Tree 3, and Tree 5 in both its narrow (ECb_max ≤ 2) and Tree 3 forms —
// decode from one 64-bit register instead of one Reader call per
// symbol. A kernel takes the next bits with Reader.Peek, counts each
// zero run with one bits.LeadingZeros64, decodes the nonzero codes with
// shifts, and hands back the bits it used with one Reader.Consume.
//
// A kernel only decodes a code that lies wholly inside the window's
// real bits. When the next code runs past them, the kernel consumes
// what it used and peeks a fresh window that starts at that code, so a
// wide value code (35 bits in a typical (ff|ff) block) costs one reload
// and no second look at the zero run before it. If a fresh window
// still cannot hold the code — it runs past the end of the payload, or
// it is wider than any window (ECb_max may legally be up to 63) — that
// one code is read with the Reader's own ReadBit/ReadSigned, the exact
// calls of the symbol-at-a-time reference decoder. The codes are
// prefix-free, so the kernels produce the reference's values, its
// reader position and its ErrUnexpectedEOF; FuzzDecodeECQ checks all
// three against the reference loops kept in reference_test.go.

// zeroRun stores the z zeros of a run at dst[i:] and returns i+z.
func zeroRun(dst []int64, i int, z uint) int {
	for end := i + int(z); i < end; i++ {
		dst[i] = 0
	}
	return i
}

// decodeTree3 decodes Tree 3 codes: 0 → "0", v → "10" + v in ecbMax
// bits, 1 → "110", −1 → "111".
//
//pastri:hotpath
func decodeTree3(r *bitio.Reader, dst []int64, ecbMax uint) error {
	// A "10"+value code is valLen bits. At ecbMax 0 the value shift
	// would be 64, so such codes never fit a window and go to the
	// fallback (ReadSigned(0) reads no bits and returns 0).
	valLen := 2 + ecbMax
	if ecbMax == 0 {
		valLen = 65
	}
	shift := 64 - ecbMax
	w, avail := r.Peek()
	rem := avail // real bits left in w, left-aligned
	for i := 0; i < len(dst); {
		z := min(uint(bits.LeadingZeros64(w)), rem, uint(len(dst)-i))
		i = zeroRun(dst, i, z)
		w <<= z & 63 // z is 64 only for an all-zero w
		rem -= z
		if i == len(dst) {
			break
		}
		// Unless the run emptied the window, the top bit is a real one.
		v, l := tree3Code(w, shift, valLen)
		if rem < l {
			// The code runs past the window: start a fresh one at it
			// and decode the code right there. (Looping back through
			// the zero-run step instead made blocks of wide codes,
			// one reload per code, about 1.4× slower.)
			r.Consume(avail - rem)
			w, avail = r.Peek()
			rem = avail
			if w>>63 == 0 && rem > 0 {
				continue // the old window ended inside a zero run
			}
			v, l = tree3Code(w, shift, valLen)
			if rem < l {
				// Not even a fresh window holds the code: it runs past
				// the end of the payload or is wider than any window.
				// Read it with the reference decoder's calls.
				v, err := readTree3Code(r, ecbMax)
				if err != nil {
					return err
				}
				dst[i] = v
				i++
				w, avail = r.Peek()
				rem = avail
				continue
			}
		}
		dst[i] = v
		w <<= l & 63 // l is 64 only when it empties the window
		rem -= l
		i++
	}
	r.Consume(avail - rem)
	return nil
}

// tree3Code decodes the nonzero Tree 3 code at the top of w, whose top
// bit is a one, into its value and length: "10" + value is the
// register's arithmetic shift by shift = 64-ecbMax, "11x" is ±1.
func tree3Code(w uint64, shift, valLen uint) (int64, uint) {
	v, l := int64(w<<2)>>(shift&63), valLen
	if w&(1<<62) != 0 {
		v, l = 1-int64(w>>60&2), 3 // "110" → 1, "111" → −1
	}
	return v, l
}

// readTree3Code reads one nonzero Tree 3 code bit by bit.
func readTree3Code(r *bitio.Reader, ecbMax uint) (int64, error) {
	if _, err := r.ReadBit(); err != nil { // the leading "1"
		return 0, err
	}
	b, err := r.ReadBit()
	if err != nil {
		return 0, err
	}
	if b == 0 { // "10" + value
		return r.ReadSigned(ecbMax)
	}
	if b, err = r.ReadBit(); err != nil {
		return 0, err
	}
	return 1 - 2*int64(b), nil
}

// decodeTree5Narrow decodes Tree 5's ECb_max ≤ 2 codes: 0 → "0",
// 1 → "10", −1 → "11".
//
//pastri:hotpath
func decodeTree5Narrow(r *bitio.Reader, dst []int64) error {
	w, avail := r.Peek()
	rem := avail
	for i := 0; i < len(dst); {
		z := min(uint(bits.LeadingZeros64(w)), rem, uint(len(dst)-i))
		i = zeroRun(dst, i, z)
		w <<= z & 63 // z is 64 only for an all-zero w
		rem -= z
		if i == len(dst) {
			break
		}
		if rem < 2 {
			r.Consume(avail - rem)
			w, avail = r.Peek()
			rem = avail
			if w>>63 == 0 && rem > 0 {
				continue
			}
			if rem < 2 {
				// The payload ends inside the code: the reference's
				// two ReadBits report it.
				if _, err := r.ReadBit(); err != nil {
					return err
				}
				b, err := r.ReadBit()
				if err != nil {
					return err
				}
				dst[i] = 1 - 2*int64(b)
				i++
				w, avail = r.Peek()
				rem = avail
				continue
			}
		}
		dst[i] = 1 - int64(w>>61&2) // "10" → 1, "11" → −1
		w <<= 2
		rem -= 2
		i++
	}
	r.Consume(avail - rem)
	return nil
}
