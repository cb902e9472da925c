package encoding

import (
	"math/rand"
	"testing"

	"repro/internal/bitio"
)

// sentinel pre-fills both destinations so a value one decoder writes and
// the other leaves untouched shows up as a difference.
const sentinel = -0x5a5a5a5a

// diffDecode decodes n values of method m from data, starting offset
// bits in, with Decode (the window kernels) and with referenceDecode,
// and fails unless both give the same values, the same error or no
// error, and the same reader position. Both readers must then yield the
// same following bits, so the window kernels leave the reader's
// reservoir exactly where ReadBits expects it.
func diffDecode(t *testing.T, data []byte, offset uint, ecbMax uint, m Method, n int) {
	t.Helper()
	got := make([]int64, n)
	want := make([]int64, n)
	for i := range got {
		got[i], want[i] = sentinel, sentinel
	}
	rg, rw := bitio.NewReader(data), bitio.NewReader(data)
	_, errG := rg.ReadBits(offset)
	_, errW := rw.ReadBits(offset)
	if errG == nil {
		errG = Decode(rg, got, ecbMax, m)
	}
	if errW == nil {
		errW = referenceDecode(rw, want, ecbMax, m)
	}
	if (errG == nil) != (errW == nil) || errG != nil && errG.Error() != errW.Error() {
		t.Fatalf("%v ecbMax=%d n=%d offset=%d: error %v, reference %v", m, ecbMax, n, offset, errG, errW)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%v ecbMax=%d n=%d offset=%d: dst[%d] = %d, reference %d", m, ecbMax, n, offset, i, got[i], want[i])
		}
	}
	if g, w := rg.BitsRead(), rw.BitsRead(); g != w {
		t.Fatalf("%v ecbMax=%d n=%d offset=%d: BitsRead %d, reference %d", m, ecbMax, n, offset, g, w)
	}
	for {
		g, eg := rg.ReadBits(7)
		w, ew := rw.ReadBits(7)
		if g != w || (eg == nil) != (ew == nil) || rg.BitsRead() != rw.BitsRead() {
			t.Fatalf("%v ecbMax=%d n=%d offset=%d: trailing read %#x/%v at %d, reference %#x/%v at %d",
				m, ecbMax, n, offset, g, eg, rg.BitsRead(), w, ew, rw.BitsRead())
		}
		if eg != nil {
			return
		}
	}
}

// encodeAt encodes vals after offset filler bits, the way a block's
// ECQ section follows its header and PQ/SQ fields at any bit offset.
func encodeAt(vals []int64, offset, ecbMax uint, m Method) []byte {
	w := bitio.NewWriter(64)
	w.WriteBits(0x5b, offset)
	Encode(w, vals, ecbMax, m)
	return append([]byte(nil), w.Bytes()...)
}

func TestWindowDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cases := []struct {
		m      Method
		ecbMax uint
	}{
		{Tree5, 2}, {Tree3, 2}, {Tree3, 3}, {Tree5, 3}, {Tree5, 17}, {Tree3, 33},
		{Tree5, 54}, {Tree5, 55}, {Tree5, 56}, {Tree3, 57}, {Tree5, 62}, {Tree5, 63},
	}
	for _, c := range cases {
		for _, zeroFrac := range []float64{0, 0.5, 0.9, 0.995} {
			for offset := uint(0); offset < 8; offset++ {
				n := 1 + rng.Intn(2000)
				vals := randomECQ(rng, n, c.ecbMax, zeroFrac)
				data := encodeAt(vals, offset, c.ecbMax, c.m)
				diffDecode(t, data, offset, c.ecbMax, c.m, n)
				// The stream must round-trip, not only agree.
				r := bitio.NewReader(data)
				if _, err := r.ReadBits(offset); err != nil {
					t.Fatal(err)
				}
				dst := make([]int64, n)
				if err := Decode(r, dst, c.ecbMax, c.m); err != nil {
					t.Fatalf("%v ecbMax=%d: %v", c.m, c.ecbMax, err)
				}
				for i := range vals {
					if dst[i] != vals[i] {
						t.Fatalf("%v ecbMax=%d: dst[%d] = %d, want %d", c.m, c.ecbMax, i, dst[i], vals[i])
					}
				}
				// Every truncation ends in the reference's error at the
				// reference's position; asking for more values than were
				// encoded runs into the end of the payload too.
				for cut := len(data) - 1; cut >= 0 && cut >= len(data)-12; cut-- {
					diffDecode(t, data[:cut], offset, c.ecbMax, c.m, n)
				}
				diffDecode(t, data, offset, c.ecbMax, c.m, n+1+rng.Intn(100))
			}
		}
	}
}

func TestWindowDecodeArbitraryBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 3000; trial++ {
		data := make([]byte, rng.Intn(40))
		rng.Read(data)
		ecbMax := uint(2 + rng.Intn(62))
		m := Tree3
		switch rng.Intn(3) {
		case 1:
			m = Tree5
		case 2:
			m, ecbMax = Tree5, 2
		}
		diffDecode(t, data, uint(rng.Intn(8)), ecbMax, m, rng.Intn(400))
	}
}

// TestWindowDecodeTinyECBMax pins the ecbMax values no block header
// carries (0 and 1) to the reference too: Decode accepts them.
func TestWindowDecodeTinyECBMax(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 500; trial++ {
		data := make([]byte, rng.Intn(24))
		rng.Read(data)
		for _, ecbMax := range []uint{0, 1} {
			for _, m := range []Method{Tree3, Tree5} {
				diffDecode(t, data, uint(rng.Intn(8)), ecbMax, m, rng.Intn(200))
			}
		}
	}
}

// FuzzDecodeECQ decodes arbitrary bytes with the window kernels and the
// reference loops: Tree3, Tree5 and Tree5's narrow (ECb_max 2) code,
// start-bit offsets 0-7, ECb_max 2-63, up to 10,000 values.
func FuzzDecodeECQ(f *testing.F) {
	rng := rand.New(rand.NewSource(18))
	for _, s := range []struct {
		mode, ecb uint8
		zeroFrac  float64
	}{{0, 15, 0.9}, {1, 0, 0.5}, {2, 0, 0.8}, {1, 55, 0.95}, {0, 61, 0.3}} {
		ecbMax := 2 + uint(s.ecb)%62
		m := Tree3
		if s.mode%3 != 0 {
			m = Tree5
		}
		if s.mode%3 == 2 {
			ecbMax = 2
		}
		n := 1 + rng.Intn(600)
		offset := uint(rng.Intn(8))
		data := encodeAt(randomECQ(rng, n, ecbMax, s.zeroFrac), offset, ecbMax, m)
		f.Add(data, s.mode, uint8(offset), s.ecb, uint16(n))
		f.Add(data[:len(data)/2], s.mode, uint8(offset), s.ecb, uint16(n))
	}
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0), uint16(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(0), uint8(3), uint8(61), uint16(10000))
	f.Fuzz(func(t *testing.T, data []byte, mode, offset, ecb uint8, n uint16) {
		ecbMax := 2 + uint(ecb)%62
		m := Tree3
		switch mode % 3 {
		case 1:
			m = Tree5
		case 2:
			m, ecbMax = Tree5, 2
		}
		diffDecode(t, data, uint(offset%8), ecbMax, m, int(n)%10001)
	})
}
