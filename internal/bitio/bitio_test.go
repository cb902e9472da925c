package bitio

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadSingleBits(t *testing.T) {
	w := NewWriter(16)
	bits := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range bits {
		w.WriteBit(b)
	}
	if got, want := w.BitLen(), uint64(len(bits)); got != want {
		t.Fatalf("BitLen = %d, want %d", got, want)
	}
	r := NewReader(w.Bytes())
	for i, want := range bits {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("ReadBit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
}

func TestWriteBitsRoundTrip(t *testing.T) {
	cases := []struct {
		v     uint64
		width uint
	}{
		{0, 1}, {1, 1}, {5, 3}, {0xff, 8}, {0x1234, 16},
		{0xdeadbeef, 32}, {1<<63 - 1, 63}, {^uint64(0), 64}, {0, 64},
		{42, 7}, {1023, 10}, {1 << 40, 41},
	}
	w := NewWriter(64)
	for _, c := range cases {
		w.WriteBits(c.v, c.width)
	}
	r := NewReader(w.Bytes())
	for i, c := range cases {
		got, err := r.ReadBits(c.width)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != c.v {
			t.Fatalf("case %d: got %#x want %#x (width %d)", i, got, c.v, c.width)
		}
	}
}

func TestSignedRoundTrip(t *testing.T) {
	cases := []struct {
		v     int64
		width uint
	}{
		{0, 1}, {-1, 1}, {-1, 2}, {1, 2}, {-4, 3}, {3, 3},
		{-128, 8}, {127, 8}, {-1 << 20, 21}, {1<<20 - 1, 21},
		{-1 << 62, 63}, {1<<62 - 1, 63}, {-1, 64}, {1 << 55, 57},
	}
	w := NewWriter(64)
	for _, c := range cases {
		w.WriteSigned(c.v, c.width)
	}
	r := NewReader(w.Bytes())
	for i, c := range cases {
		got, err := r.ReadSigned(c.width)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != c.v {
			t.Fatalf("case %d: got %d want %d (width %d)", i, got, c.v, c.width)
		}
	}
}

func TestUnary(t *testing.T) {
	w := NewWriter(16)
	vals := []uint{0, 1, 2, 7, 13, 0, 31}
	for _, v := range vals {
		w.WriteUnary(v)
	}
	r := NewReader(w.Bytes())
	for i, want := range vals {
		got, err := r.ReadUnary()
		if err != nil {
			t.Fatalf("unary %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("unary %d = %d, want %d", i, got, want)
		}
	}
}

// TestUnaryBoundaries pins the word-level unary codec at the lengths
// where the fast path changes shape: the single-call limit (63), the
// full-word run (64), and multi-word runs.
func TestUnaryBoundaries(t *testing.T) {
	vals := []uint{0, 1, 62, 63, 64, 65, 127, 128, 129, 200}
	for _, pad := range []uint{0, 1, 7, 13} { // misalign the code start
		w := NewWriter(64)
		w.WriteBits(0, pad)
		for _, v := range vals {
			w.WriteUnary(v)
		}
		r := NewReader(w.Bytes())
		if _, err := r.ReadBits(pad); err != nil {
			t.Fatalf("pad %d: %v", pad, err)
		}
		for i, want := range vals {
			got, err := r.ReadUnary()
			if err != nil {
				t.Fatalf("pad %d unary %d: %v", pad, i, err)
			}
			if got != want {
				t.Fatalf("pad %d unary %d = %d, want %d", pad, i, got, want)
			}
		}
	}
}

// TestBytesTailPadding checks the single-append tail flush against the
// bit-exact expected bytes for every possible buffered-tail length,
// including the widest 63-bit tail.
func TestBytesTailPadding(t *testing.T) {
	for n := uint(0); n <= 63; n++ {
		w := NewWriter(16)
		w.WriteBits(^uint64(0), n) // n ones, padded with zeros to a byte
		got := w.Bytes()
		if want := int((n + 7) / 8); len(got) != want {
			t.Fatalf("n=%d: len(Bytes) = %d, want %d", n, len(got), want)
		}
		var bit uint
		r := NewReader(got)
		for i := uint(0); i < uint(len(got))*8; i++ {
			b, err := r.ReadBit()
			if err != nil {
				t.Fatalf("n=%d bit %d: %v", n, i, err)
			}
			if i < n {
				bit = 1
			} else {
				bit = 0
			}
			if b != bit {
				t.Fatalf("n=%d bit %d = %d, want %d", n, i, b, bit)
			}
		}
	}
}

// TestBytesNoAlloc: with spare buffer capacity, Bytes must not allocate
// even with a buffered tail.
func TestBytesNoAlloc(t *testing.T) {
	w := NewWriter(64)
	allocs := testing.AllocsPerRun(100, func() {
		w.Reset()
		w.WriteBits(0xabc, 12) // leaves a 12-bit tail
		_ = w.Bytes()
	})
	if allocs != 0 {
		t.Fatalf("Bytes with buffered tail allocated %v times", allocs)
	}
}

// TestReadZeroRun covers runs that stop on a one-bit, on the quota, and
// at end of input, across reservoir refills.
func TestReadZeroRun(t *testing.T) {
	w := NewWriter(64)
	runs := []uint{0, 1, 5, 63, 64, 70, 130, 2}
	for _, k := range runs {
		for i := uint(0); i < k; i++ {
			w.WriteBit(0)
		}
		w.WriteBit(1) // terminator, must stay unconsumed by ReadZeroRun
	}
	r := NewReader(w.Bytes())
	for i, k := range runs {
		got := r.ReadZeroRun(1 << 20)
		if got != k {
			t.Fatalf("run %d: ReadZeroRun = %d, want %d", i, got, k)
		}
		b, err := r.ReadBit()
		if err != nil || b != 1 {
			t.Fatalf("run %d: terminator = %d, %v", i, b, err)
		}
	}

	// Quota stops mid-run without touching the remainder.
	w.Reset()
	w.WriteBits(0, 40)
	w.WriteBits(1, 1)
	r.Reset(w.Bytes())
	if got := r.ReadZeroRun(17); got != 17 {
		t.Fatalf("quota run = %d, want 17", got)
	}
	if got := r.ReadZeroRun(1 << 20); got != 23 {
		t.Fatalf("rest of run = %d, want 23", got)
	}
	if b, err := r.ReadBit(); err != nil || b != 1 {
		t.Fatalf("terminator after quota = %d, %v", b, err)
	}

	// End of input: zeros up to the padded end, then no error from the
	// run reader itself — the next ReadBit reports EOF.
	w.Reset()
	w.WriteBits(0, 11)
	r.Reset(w.Bytes())
	if got := r.ReadZeroRun(1 << 20); got != 16 { // 11 written + 5 pad bits
		t.Fatalf("EOF run = %d, want 16", got)
	}
	if _, err := r.ReadBit(); err != ErrUnexpectedEOF {
		t.Fatalf("after exhausted run: err = %v, want ErrUnexpectedEOF", err)
	}
}

// TestReadBitsMatchesPerBit cross-checks the batched ReadBits fast path
// against bit-at-a-time reference reads over a shared stream.
func TestReadBitsMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := NewWriter(0)
	for i := 0; i < 4096; i++ {
		w.WriteBits(rng.Uint64(), uint(rng.Intn(64))+1)
	}
	buf := w.Bytes()
	batched := NewReader(buf)
	perBit := NewReader(buf)
	widths := []uint{1, 3, 8, 13, 17, 31, 33, 63, 64}
	for i := 0; ; i++ {
		width := widths[i%len(widths)]
		got, errB := batched.ReadBits(width)
		var want uint64
		var errR error
		for j := uint(0); j < width; j++ {
			var b uint
			if b, errR = perBit.ReadBit(); errR != nil {
				break
			}
			want = want<<1 | uint64(b)
		}
		if (errB != nil) != (errR != nil) {
			t.Fatalf("read %d width %d: batched err %v, per-bit err %v", i, width, errB, errR)
		}
		if errB != nil {
			break
		}
		if got != want {
			t.Fatalf("read %d width %d: batched %#x, per-bit %#x", i, width, got, want)
		}
	}
}

func TestUnexpectedEOF(t *testing.T) {
	w := NewWriter(1)
	w.WriteBits(0b101, 3)
	r := NewReader(w.Bytes())
	if _, err := r.ReadBits(8); err != nil {
		t.Fatalf("padded byte should be readable: %v", err)
	}
	if _, err := r.ReadBit(); err != ErrUnexpectedEOF {
		t.Fatalf("expected ErrUnexpectedEOF, got %v", err)
	}
	if _, err := r.ReadBits(16); err != ErrUnexpectedEOF {
		t.Fatalf("expected ErrUnexpectedEOF, got %v", err)
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(8)
	w.WriteBits(0xabcd, 16)
	w.Reset()
	if w.BitLen() != 0 || w.Len() != 0 {
		t.Fatalf("after Reset: BitLen=%d Len=%d", w.BitLen(), w.Len())
	}
	w.WriteBits(0x7, 3)
	r := NewReader(w.Bytes())
	got, err := r.ReadBits(3)
	if err != nil || got != 7 {
		t.Fatalf("got %d, %v", got, err)
	}
}

func TestLenMatchesBytes(t *testing.T) {
	w := NewWriter(0)
	for i := 0; i < 100; i++ {
		w.WriteBits(uint64(i), uint(i%23)+1)
		if w.Len() != len(w.Bytes()) {
			t.Fatalf("iteration %d: Len=%d len(Bytes)=%d", i, w.Len(), len(w.Bytes()))
		}
	}
}

// Property: any sequence of (value,width) writes reads back identically.
func TestQuickMixedRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%200 + 1
		type item struct {
			v      uint64
			width  uint
			signed bool
		}
		items := make([]item, count)
		w := NewWriter(0)
		for i := range items {
			width := uint(rng.Intn(64)) + 1
			signed := rng.Intn(2) == 0
			var v uint64
			if signed {
				sv := rng.Int63() % (1 << (width - 1))
				if rng.Intn(2) == 0 && width > 1 {
					sv = -sv - 1
				}
				if width == 1 {
					sv = -(rng.Int63() % 2)
				}
				v = uint64(sv)
				w.WriteSigned(int64(v), width)
			} else {
				v = rng.Uint64()
				if width < 64 {
					v &= (1 << width) - 1
				}
				w.WriteBits(v, width)
			}
			items[i] = item{v, width, signed}
		}
		r := NewReader(w.Bytes())
		for _, it := range items {
			if it.signed {
				got, err := r.ReadSigned(it.width)
				if err != nil || got != int64(it.v) {
					return false
				}
			} else {
				got, err := r.ReadBits(it.width)
				if err != nil || got != it.v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsReadAccounting(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0x3, 2)
	w.WriteBits(0xff, 9)
	r := NewReader(w.Bytes())
	if _, err := r.ReadBits(2); err != nil {
		t.Fatal(err)
	}
	if r.BitsRead() != 2 {
		t.Fatalf("BitsRead = %d, want 2", r.BitsRead())
	}
	if _, err := r.ReadBits(9); err != nil {
		t.Fatal(err)
	}
	if r.BitsRead() != 11 {
		t.Fatalf("BitsRead = %d, want 11", r.BitsRead())
	}
}

// TestPeekConsumeEveryPosition walks a stream whose length is not a
// multiple of eight bytes, so both Peek's word load and its zero-padded
// tail are hit at every bit offset, and checks that ReadBit, ReadBits
// and AlignByte pick up exactly where Consume left the reader.
func TestPeekConsumeEveryPosition(t *testing.T) {
	data := []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd}
	total := uint(len(data)) * 8
	ref := NewReader(data)
	var bits []uint
	for {
		b, err := ref.ReadBit()
		if err != nil {
			break
		}
		bits = append(bits, b)
	}
	for pos := uint(0); pos <= total; pos++ {
		r := NewReader(data)
		r.Consume(pos)
		w, n := r.Peek()
		if want := min(64-pos%8, total-pos); n != want {
			t.Fatalf("pos %d: Peek real bits %d, want %d", pos, n, want)
		}
		for i := uint(0); i < 64; i++ {
			want := uint(0)
			if i < n {
				want = bits[pos+i]
			}
			if got := uint(w>>(63-i)) & 1; got != want {
				t.Fatalf("pos %d: window bit %d = %d, want %d", pos, i, got, want)
			}
		}
		if pos < total {
			if b, err := r.ReadBit(); err != nil || b != bits[pos] {
				t.Fatalf("pos %d: ReadBit after Consume = %d, %v", pos, b, err)
			}
			r.AlignByte()
			if want := uint64((pos + 8) &^ 7); r.BitsRead() != want {
				t.Fatalf("pos %d: AlignByte after ReadBit at %d, want %d", pos, r.BitsRead(), want)
			}
		}
		r = NewReader(data)
		r.Consume(pos)
		r.AlignByte()
		at := (pos + 7) &^ 7
		if r.BitsRead() != uint64(at) {
			t.Fatalf("pos %d: AlignByte after Consume at %d, want %d", pos, r.BitsRead(), at)
		}
		v, err := r.ReadBits(13)
		if at+13 > total {
			if err != ErrUnexpectedEOF {
				t.Fatalf("pos %d: ReadBits(13) past the end: %v", pos, err)
			}
			continue
		}
		var want uint64
		for _, b := range bits[at : at+13] {
			want = want<<1 | uint64(b)
		}
		if err != nil || v != want {
			t.Fatalf("pos %d: ReadBits(13) after AlignByte = %#x, %v; want %#x", pos, v, err, want)
		}
	}
}
