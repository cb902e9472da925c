package encoding

import "repro/internal/bitio"

// The symbol-at-a-time Tree 3 and narrow Tree 5 decoders that the word-
// window kernels replaced. They make one ReadZeroRun, ReadBit or
// ReadSigned call per symbol and serve as the differential oracle for
// decodeTree3 and decodeTree5Narrow (FuzzDecodeECQ, TestWindowDecode*).

// referenceDecode decodes like Decode, with the reference loops for
// Tree3 and Tree5 and Decode itself for every other method.
func referenceDecode(r *bitio.Reader, dst []int64, ecbMax uint, m Method) error {
	switch {
	case m == Tree3 || m == Tree5 && ecbMax > 2:
		return referenceDecodeTree3(r, dst, ecbMax)
	case m == Tree5:
		return referenceDecodeTree5Narrow(r, dst)
	}
	return Decode(r, dst, ecbMax, m)
}

func referenceDecodeTree3(r *bitio.Reader, dst []int64, ecbMax uint) error {
	for i := 0; i < len(dst); {
		if i = readZeros(r, dst, i); i == len(dst) {
			break
		}
		if _, err := r.ReadBit(); err != nil { // the leading "1"
			return err
		}
		b, err := r.ReadBit()
		if err != nil {
			return err
		}
		if b == 0 { // "10" + value
			v, err := r.ReadSigned(ecbMax)
			if err != nil {
				return err
			}
			dst[i] = v
			i++
			continue
		}
		b, err = r.ReadBit()
		if err != nil {
			return err
		}
		if b == 0 {
			dst[i] = 1
		} else {
			dst[i] = -1
		}
		i++
	}
	return nil
}

func referenceDecodeTree5Narrow(r *bitio.Reader, dst []int64) error {
	for i := 0; i < len(dst); {
		if i = readZeros(r, dst, i); i == len(dst) {
			break
		}
		if _, err := r.ReadBit(); err != nil { // the leading "1"
			return err
		}
		b, err := r.ReadBit()
		if err != nil {
			return err
		}
		if b == 0 {
			dst[i] = 1
		} else {
			dst[i] = -1
		}
		i++
	}
	return nil
}
