package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// FuzzStoreOpen throws arbitrary (segment, index) byte pairs at
// openSegment. The invariants under fuzzing:
//
//   - no panic, no runtime fault, no unbounded allocation;
//   - a successful open only ever happens for a pair whose checksums
//     genuinely match, and every block it then serves decodes without
//     fault (errors are fine, crashes are not);
//   - all failures are typed (ErrCorrupt or ErrNotFound).
//
// Seeds: a pristine committed pair plus structured mutations of it
// (truncations, bit flips, swapped files), so the fuzzer starts deep
// inside the parser instead of at the magic check.
func FuzzStoreOpen(f *testing.F) {
	cfg := core.Defaults(4, 9, 1e-10)
	data := testBlocks(cfg, 3, 99)
	comp, err := core.Compress(data, cfg, nil)
	if err != nil {
		f.Fatal(err)
	}
	idx, err := buildIndex(comp)
	if err != nil {
		f.Fatal(err)
	}

	f.Add(comp, idx)
	f.Add(comp[:len(comp)/2], idx)
	f.Add(comp, idx[:len(idx)/2])
	f.Add(idx, comp) // swapped
	f.Add([]byte{}, []byte{})
	mut := append([]byte(nil), comp...)
	mut[len(mut)/3] ^= 0x10
	f.Add(mut, idx)
	mutIdx := append([]byte(nil), idx...)
	mutIdx[idxHeaderSize/2] ^= 0x80
	f.Add(comp, mutIdx)
	// An index claiming a huge block count must be bounded-rejected.
	big := append([]byte(nil), idx[:idxHeaderSize]...)
	for i := 20; i < 28; i++ {
		big[i] = 0xff
	}
	f.Add(comp, big)

	f.Fuzz(func(t *testing.T, seg, idx []byte) {
		dir := t.TempDir()
		segPath := filepath.Join(dir, "f.seg")
		idxPath := filepath.Join(dir, "f.idx")
		if err := os.WriteFile(segPath, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(idxPath, idx, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := openSegment(segPath, idxPath)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNotFound) {
				t.Fatalf("untyped open error: %v", err)
			}
			return
		}
		defer s.close()
		dst := make([]float64, s.BlockSize())
		for b := 0; b < s.NumBlocks(); b++ {
			if rerr := s.ReadBlock(b, dst, nil); rerr != nil &&
				!errors.Is(rerr, ErrCorrupt) && !errors.Is(rerr, ErrNotFound) {
				t.Fatalf("untyped read error: %v", rerr)
			}
		}
	})
}
