package encoding

import (
	"math/rand"
	"testing"

	"repro/internal/bitio"
)

// benchECQ mimics a Type-2/3 ECQ distribution: mostly zeros, a few
// small values, rare large outliers.
func benchECQ() []int64 {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 1296)
	for i := range vals {
		switch rng.Intn(20) {
		case 0:
			vals[i] = rng.Int63n(7) - 3
		case 1:
			vals[i] = rng.Int63n(1<<16) - 1<<15
		}
	}
	return vals
}

func BenchmarkEncodeTrees(b *testing.B) {
	vals := benchECQ()
	idxs, nz := gather(vals)
	ecb := uint(17)
	for _, m := range Methods {
		b.Run(m.String(), func(b *testing.B) {
			w := bitio.NewWriter(1 << 14)
			b.SetBytes(int64(len(vals) * 8))
			for i := 0; i < b.N; i++ {
				w.Reset()
				EncodeList(w, idxs, nz, len(vals), ecb, m)
			}
		})
	}
}

func BenchmarkDecodeTree5(b *testing.B) {
	vals := benchECQ()
	ecb := uint(17)
	w := bitio.NewWriter(1 << 14)
	encodeDense(w, vals, ecb, Tree5)
	buf := w.Bytes()
	dst := make([]int64, len(vals))
	b.SetBytes(int64(len(vals) * 8))
	for i := 0; i < b.N; i++ {
		if err := Decode(bitio.NewReader(buf), dst, ecb, Tree5); err != nil {
			b.Fatal(err)
		}
	}
}
