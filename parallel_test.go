package pastri

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The public API compresses the same bytes at every worker count:
// Compress under any Options.Workers, and StreamWriter producing
// Compress's stream with the streaming block count in its header, with
// the same error-bound guarantee on the way back.

func TestCompressWorkersPublicByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	opts := NewOptions(6, 10, 1e-10)
	opts.Workers = 1
	data := patterned(rng, 23, 6, 10, 1e-6, 1e-11)
	serial, err := Compress(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 2, 4, 7} {
		opts.Workers = n
		par, err := Compress(data, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", n, err)
		}
		if !bytes.Equal(serial, par) {
			t.Fatalf("workers=%d: output differs from workers=1", n)
		}
	}
}

func TestStreamWriterPublic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	opts := NewOptions(4, 9, 1e-9)
	data := patterned(rng, 17, 4, 9, 1e-5, 1e-10)
	bs := opts.BlockSize()

	comp, err := Compress(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	// A streamed header records the all-ones "count unknown" sentinel in
	// its last 8 bytes (offset 24) instead of the block count.
	want := append([]byte(nil), comp...)
	binary.LittleEndian.PutUint64(want[24:32], math.MaxUint64)

	for _, workers := range []int{1, 4} {
		opts.Workers = workers
		var buf bytes.Buffer
		sw, err := NewStreamWriter(&buf, opts)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b*bs < len(data); b++ {
			if err := sw.WriteBlock(data[b*bs : (b+1)*bs]); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("workers=%d: StreamWriter stream differs from Compress's", workers)
		}
		if got := sw.Blocks(); got != uint64(len(data)/bs) {
			t.Fatalf("workers=%d: Blocks() = %d, want %d", workers, got, len(data)/bs)
		}
		got, err := Decompress(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			if math.Abs(got[i]-data[i]) > opts.ErrorBound {
				t.Fatalf("workers=%d: error bound violated at %d: |%g - %g| > %g",
					workers, i, data[i], got[i], opts.ErrorBound)
			}
		}
	}
}
