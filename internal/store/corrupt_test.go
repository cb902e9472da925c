package store

import (
	"errors"
	"math"
	"os"
	"testing"

	"repro/internal/core"
)

// Fault-injection battery: torn/short writes, bit-flipped segment
// bytes and truncated or mutated indexes must surface as typed errors
// (ErrCorrupt / ErrNotFound) — never a panic, and never wrong block
// data. The mutation style mirrors the public-API corrupt_test.go
// battery: exhaustive truncations plus per-byte bit flips.

// corruptFixture builds a committed stream and returns the store, the
// on-disk paths and the expected serial decode.
func corruptFixture(t *testing.T) (st *Store, segPath, idxPath string, cfg core.Config, want []float64) {
	t.Helper()
	cfg = testCfg()
	data := testBlocks(cfg, 4, 11)
	comp := mustCompress(t, cfg, data)
	want, err := core.Decompress(comp, 1)
	if err != nil {
		t.Fatal(err)
	}
	st = openStore(t, Config{Shards: 2})
	putStream(t, st, "qa", "victim", comp)
	segPath, idxPath = st.paths("qa", "victim")
	return st, segPath, idxPath, cfg, want
}

// readAllBlocks opens the pair directly and reads every block,
// comparing against want. It reports whether open succeeded, and fails
// the test on any panic (implicit) or wrong data.
func readAllBlocks(t *testing.T, segPath, idxPath string, want []float64) (opened bool, err error) {
	t.Helper()
	seg, err := openSegment(segPath, idxPath)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNotFound) {
			t.Fatalf("open returned untyped error: %v", err)
		}
		return false, err
	}
	defer seg.close()
	dst := make([]float64, seg.BlockSize())
	for b := 0; b < seg.NumBlocks(); b++ {
		if rerr := seg.ReadBlock(b, dst, nil); rerr != nil {
			if !errors.Is(rerr, ErrCorrupt) && !errors.Is(rerr, ErrNotFound) {
				t.Fatalf("ReadBlock returned untyped error: %v", rerr)
			}
			continue
		}
		if want != nil {
			bs := seg.BlockSize()
			for i, v := range dst {
				if math.Float64bits(v) != math.Float64bits(want[b*bs+i]) {
					t.Fatalf("block %d value %d: corrupted store served WRONG data", b, i)
				}
			}
		}
	}
	return true, nil
}

func mutateFile(t *testing.T, path string, mutate func([]byte) []byte) (restore func()) {
	t.Helper()
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(append([]byte(nil), orig...)), 0o644); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// Every single-bit flip anywhere in the segment must be caught: by the
// open-time whole-segment CRC when opening fresh, and the flipped
// block can never decode to wrong bytes.
func TestStoreBitFlippedSegment(t *testing.T) {
	_, segPath, idxPath, _, want := corruptFixture(t)
	segBytes, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	step := 1
	if len(segBytes) > 512 {
		step = len(segBytes) / 512
	}
	for pos := 0; pos < len(segBytes); pos += step {
		for _, bit := range []byte{0x01, 0x80} {
			pos, bit := pos, bit
			restore := mutateFile(t, segPath, func(b []byte) []byte {
				b[pos] ^= bit
				return b
			})
			opened, err := readAllBlocks(t, segPath, idxPath, want)
			if opened {
				t.Fatalf("flip @%d/%#x: open succeeded on a segment whose CRC cannot match", pos, bit)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip @%d/%#x: got %v, want ErrCorrupt", pos, bit, err)
			}
			restore()
		}
	}
}

// A block read must re-verify the payload checksum even when the
// segment was pristine at open time (bit rot after open).
func TestStoreBitFlipAfterOpen(t *testing.T) {
	_, segPath, idxPath, cfg, want := corruptFixture(t)
	seg, err := openSegment(segPath, idxPath)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.close()

	// Flip one bit inside block 2's payload on disk, behind the open
	// handle's back.
	off, n := seg.blocks[2].off, seg.blocks[2].n
	restore := mutateFile(t, segPath, func(b []byte) []byte {
		b[off+uint64(n)/2] ^= 0x40
		return b
	})
	defer restore()

	dst := make([]float64, cfg.BlockSize())
	if err := seg.ReadBlock(2, dst, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("post-open flip: got %v, want ErrCorrupt", err)
	}
	// Unaffected blocks still serve correct bytes.
	if err := seg.ReadBlock(0, dst, nil); err != nil {
		t.Fatal(err)
	}
	for i, v := range dst {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("value %d of untouched block changed", i)
		}
	}
}

// Every prefix truncation of the segment (a torn write) must fail
// open with a typed error.
func TestStoreTruncatedSegment(t *testing.T) {
	_, segPath, idxPath, _, want := corruptFixture(t)
	segBytes, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	step := 1
	if len(segBytes) > 256 {
		step = len(segBytes) / 256
	}
	for cut := 0; cut < len(segBytes); cut += step {
		cut := cut
		restore := mutateFile(t, segPath, func(b []byte) []byte { return b[:cut] })
		opened, err := readAllBlocks(t, segPath, idxPath, want)
		if opened {
			t.Fatalf("cut @%d: truncated segment opened", cut)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut @%d: got %v, want ErrCorrupt", cut, err)
		}
		restore()
	}
}

// Every prefix truncation and bit flip of the index must fail open
// with a typed error, never a panic or a bad allocation.
func TestStoreCorruptIndex(t *testing.T) {
	_, segPath, idxPath, _, want := corruptFixture(t)
	idxBytes, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(idxBytes); cut++ {
		cut := cut
		restore := mutateFile(t, idxPath, func(b []byte) []byte { return b[:cut] })
		if opened, err := readAllBlocks(t, segPath, idxPath, want); opened {
			t.Fatalf("idx cut @%d: truncated index opened", cut)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("idx cut @%d: got %v, want ErrCorrupt", cut, err)
		}
		restore()
	}
	for pos := 0; pos < len(idxBytes); pos++ {
		for _, bit := range []byte{0x01, 0x80} {
			pos, bit := pos, bit
			restore := mutateFile(t, idxPath, func(b []byte) []byte {
				b[pos] ^= bit
				return b
			})
			if opened, err := readAllBlocks(t, segPath, idxPath, want); opened {
				t.Fatalf("idx flip @%d/%#x: corrupt index opened", pos, bit)
			} else if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("idx flip @%d/%#x: got %v, want ErrCorrupt", pos, bit, err)
			}
			restore()
		}
	}
}

// A missing index (crash between the commit renames) reads as
// not-found, and Open's sweep removes the orphan segment.
func TestStoreMissingIndex(t *testing.T) {
	st, segPath, idxPath, _, _ := corruptFixture(t)
	if err := os.Remove(idxPath); err != nil {
		t.Fatal(err)
	}
	if _, err := openSegment(segPath, idxPath); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing index: got %v, want ErrNotFound", err)
	}
	_ = st
}

// An index whose internal CRC is valid but whose segment CRC or block
// count no longer matches the segment must be rejected: swap in the
// index of a *different* (also valid) stream.
func TestStoreIndexSegmentMismatch(t *testing.T) {
	cfg := testCfg()
	st := openStore(t, Config{Shards: 1})
	putStream(t, st, "qa", "one", mustCompress(t, cfg, testBlocks(cfg, 4, 21)))
	putStream(t, st, "qa", "two", mustCompress(t, cfg, testBlocks(cfg, 2, 22)))
	segOne, _ := st.paths("qa", "one")
	_, idxTwo := st.paths("qa", "two")
	if _, err := openSegment(segOne, idxTwo); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mismatched pair: got %v, want ErrCorrupt", err)
	}
}

// A short write that never commits must be invisible and leave no
// usage accounting behind.
func TestStoreTornUpload(t *testing.T) {
	cfg := testCfg()
	comp := mustCompress(t, cfg, testBlocks(cfg, 3, 31))
	st := openStore(t, Config{})
	w, err := st.Create("qa", "torn")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(comp[:len(comp)/2]); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn upload committed: %v", err)
	}
	if _, err := st.Get("qa", "torn"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("torn upload visible: %v", err)
	}
	if got := st.Usage("qa"); got != 0 {
		t.Fatalf("torn upload charged %d bytes", got)
	}
	// Abandoned writer (no Commit, no Abort): Abort path.
	w2, err := st.Create("qa", "abandoned")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Write(comp[:8]); err != nil {
		t.Fatal(err)
	}
	w2.Abort()
	w2.Abort() // idempotent
	if _, err := st.Get("qa", "abandoned"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("aborted upload visible: %v", err)
	}
}
