// Package zfp implements a ZFP-style fixed-accuracy transform compressor
// for 1-D double-precision data, following the structure of Lindstrom's
// ZFP (TVCG 2014) that the paper compares against:
//
//  1. partition the stream into blocks of 4 values,
//  2. block floating point: align all values to the block's largest
//     exponent and convert to 62-bit signed fixed point,
//  3. an exact integer decorrelating transform (two-level S-transform
//     lifting, the reversible integer analogue of ZFP's lifted basis),
//  4. negabinary mapping, so small coefficients have many leading zeros,
//  5. bit-plane coding from the most significant plane down, truncated
//     at the plane where the remaining contribution is below the
//     absolute error tolerance (fixed-accuracy mode).
//
// ZFP is designed for ≥ 2-D meshes; on 1-D streams its per-block
// exponent and plane overheads hurt it, which is exactly the behaviour
// the paper reports (Sec. II: "ZFP ... suffers from the low compression
// ratio for 1D datasets").
package zfp

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/bitio"
)

const blockLen = 4

// fractionBits is the fixed-point precision per value. Two bits of
// headroom below int64 keep the S-transform from overflowing: the
// level-1 difference d = b − a doubles the magnitude and the level-2
// difference doubles it again, so |coefficient| ≤ 2^(fractionBits+2).
const fractionBits = 60

// guardPlanes keeps extra planes beyond the analytic cutoff so the
// inverse-transform error amplification (≤ 4× across two lifting
// levels) stays within the tolerance.
const guardPlanes = 3

var magic = [4]byte{'Z', 'F', 'P', '1'}

// Compress compresses data with absolute error tolerance tol
// (fixed-accuracy mode).
func Compress(data []float64, tol float64) ([]byte, error) {
	if !(tol > 0) || math.IsInf(tol, 0) {
		return nil, fmt.Errorf("zfp: tolerance must be positive and finite, got %g", tol)
	}
	n := len(data)
	w := bitio.NewWriter(n)
	var blk [blockLen]float64
	for i := 0; i < n; i += blockLen {
		m := copy(blk[:], data[i:min(i+blockLen, n)])
		for j := m; j < blockLen; j++ {
			blk[j] = 0 // pad the final partial block
		}
		encodeBlock(w, &blk, tol)
	}
	payload := w.Bytes()
	out := make([]byte, 0, 21+len(payload))
	out = append(out, magic[:]...)
	out = append(out, 1)
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], math.Float64bits(tol))
	out = append(out, b8[:]...)
	binary.LittleEndian.PutUint64(b8[:], uint64(n))
	out = append(out, b8[:]...)
	out = append(out, payload...)
	return out, nil
}

// Decompress reverses Compress.
func Decompress(comp []byte) ([]float64, error) {
	if len(comp) < 21 {
		return nil, fmt.Errorf("zfp: stream too short")
	}
	if [4]byte(comp[:4]) != magic {
		return nil, fmt.Errorf("zfp: bad magic")
	}
	if comp[4] != 1 {
		return nil, fmt.Errorf("zfp: unsupported version %d", comp[4])
	}
	n := binary.LittleEndian.Uint64(comp[13:21])
	// Every 4-value block consumes at least one bit of payload; a
	// corrupt count must not drive a giant allocation.
	if n > uint64(len(comp)-21)*8*blockLen {
		return nil, fmt.Errorf("zfp: %d elements cannot fit in %d payload bytes", n, len(comp)-21)
	}
	r := bitio.NewReader(comp[21:])
	out := make([]float64, n)
	var blk [blockLen]float64
	for i := 0; i < int(n); i += blockLen {
		if err := decodeBlock(r, &blk); err != nil {
			return nil, err
		}
		copy(out[i:min(i+blockLen, int(n))], blk[:])
	}
	return out, nil
}

// Block bitstream:
//
//	zero     1 bit    1 ⇒ all-zero block (nothing follows)
//	e        12 bits  biased block exponent
//	planes   7 bits   number of bit planes encoded (0..64)
//	payload  planes × 4 bits, MSB plane first
func encodeBlock(w *bitio.Writer, blk *[blockLen]float64, tol float64) {
	// Block exponent.
	maxAbs := 0.0
	for _, v := range blk {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 || maxAbs < tol/8 {
		// Entirely below tolerance: emit the all-zero flag. (ZFP's
		// accuracy mode likewise spends ~1 bit on negligible blocks.)
		w.WriteBit(1)
		return
	}
	w.WriteBit(0)
	e := math.Ilogb(maxAbs) + 1 // 2^e > maxAbs
	scale := math.Ldexp(1, fractionBits-e)

	var q [blockLen]int64
	for i, v := range blk {
		q[i] = int64(math.Round(v * scale))
	}
	fwdLift(&q)

	// Fixed-accuracy plane cutoff: dropped planes contribute at most
	// 2^(k+1) per coefficient before the inverse transform, amplified by
	// ≤ 2^guardPlanes through lifting; keep planes above that level.
	// tol in fixed-point units:
	tolFixed := tol * scale
	minPlane := 0
	if tolFixed > 1 {
		minPlane = math.Ilogb(tolFixed) - guardPlanes
		if minPlane < 0 {
			minPlane = 0
		}
	}
	planes := fractionBits + 2 - minPlane // +2: transform growth headroom
	if planes > 64 {
		planes = 64
	}
	if planes < 1 {
		planes = 1
	}

	w.WriteBits(uint64(e+2048), 12)
	w.WriteBits(uint64(planes), 7)
	var u [blockLen]uint64
	for i, v := range q {
		u[i] = toNegabinary(v)
	}
	for p := 63; p > 63-planes; p-- {
		var nibble uint64
		for i := 0; i < blockLen; i++ {
			nibble = nibble<<1 | (u[i]>>uint(p))&1
		}
		w.WriteBits(nibble, blockLen)
	}
}

func decodeBlock(r *bitio.Reader, blk *[blockLen]float64) error {
	zero, err := r.ReadBit()
	if err != nil {
		return err
	}
	if zero == 1 {
		for i := range blk {
			blk[i] = 0
		}
		return nil
	}
	eRaw, err := r.ReadBits(12)
	if err != nil {
		return err
	}
	e := int(eRaw) - 2048
	planesRaw, err := r.ReadBits(7)
	if err != nil {
		return err
	}
	planes := int(planesRaw)
	if planes < 1 || planes > 64 {
		return fmt.Errorf("zfp: corrupt plane count %d", planes)
	}
	var u [blockLen]uint64
	for p := 63; p > 63-planes; p-- {
		nibble, err := r.ReadBits(blockLen)
		if err != nil {
			return err
		}
		for i := 0; i < blockLen; i++ {
			u[i] |= (nibble >> uint(blockLen-1-i) & 1) << uint(p)
		}
	}
	var q [blockLen]int64
	for i, v := range u {
		q[i] = fromNegabinary(v)
	}
	invLift(&q)
	scale := math.Ldexp(1, e-fractionBits)
	for i, v := range q {
		blk[i] = float64(v) * scale
	}
	return nil
}

// fwdLift applies a two-level reversible S-transform:
// level 1 pairs (0,1) and (2,3) into (sum, diff); level 2 combines the
// two sums. Output layout: [S, D, d01, d23].
func fwdLift(p *[blockLen]int64) {
	a, b, c, d := p[0], p[1], p[2], p[3]
	d01 := b - a
	s01 := a + (d01 >> 1)
	d23 := d - c
	s23 := c + (d23 >> 1)
	D := s23 - s01
	S := s01 + (D >> 1)
	p[0], p[1], p[2], p[3] = S, D, d01, d23
}

// invLift exactly inverts fwdLift.
func invLift(p *[blockLen]int64) {
	S, D, d01, d23 := p[0], p[1], p[2], p[3]
	s01 := S - (D >> 1)
	s23 := s01 + D
	a := s01 - (d01 >> 1)
	b := a + d01
	c := s23 - (d23 >> 1)
	d := c + d23
	p[0], p[1], p[2], p[3] = a, b, c, d
}

// toNegabinary maps two's complement to negabinary, ZFP's sign-free
// representation in which truncating low bits biases the error toward
// zero symmetrically.
func toNegabinary(v int64) uint64 {
	const mask = 0xaaaaaaaaaaaaaaaa
	return (uint64(v) + mask) ^ mask
}

// fromNegabinary inverts toNegabinary.
func fromNegabinary(u uint64) int64 {
	const mask = 0xaaaaaaaaaaaaaaaa
	return int64((u ^ mask) - mask)
}

// Tolerance extracts the tolerance recorded in a compressed stream.
func Tolerance(comp []byte) (float64, error) {
	if len(comp) < 13 || [4]byte(comp[:4]) != magic {
		return 0, fmt.Errorf("zfp: not a ZFP stream")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(comp[5:13])), nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
