package container

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
)

func patterned(rng *rand.Rand, g Geometry, amp float64) []float64 {
	shape := make([]float64, g.SBSize)
	for i := range shape {
		shape[i] = rng.NormFloat64() * amp
	}
	out := make([]float64, 0, g.BlockSize())
	for s := 0; s < g.NumSB; s++ {
		sc := rng.Float64()*2 - 1
		for i := 0; i < g.SBSize; i++ {
			out = append(out, sc*shape[i]+amp*1e-5*rng.NormFloat64())
		}
	}
	return out
}

func TestMixedGeometryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	base := core.Defaults(1, 1, 1e-10)
	w, err := NewWriter(base)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's hybrid shapes: (dd|dd), (df|fd), (ff|ff), (fd|ff)...
	geos := []Geometry{
		{36, 36},   // (dd|dd)
		{60, 60},   // (df|df)
		{100, 100}, // (ff|ff)
		{60, 100},  // (fd|ff)
	}
	var want [][]float64
	var wantG []Geometry
	for i := 0; i < 40; i++ {
		g := geos[rng.Intn(len(geos))]
		blk := patterned(rng, g, math.Pow(10, float64(rng.Intn(6)-9)))
		if err := w.WriteBlock(g, blk); err != nil {
			t.Fatal(err)
		}
		want = append(want, blk)
		wantG = append(wantG, g)
	}
	if w.Blocks() != 40 {
		t.Fatalf("Blocks = %d", w.Blocks())
	}
	if w.Sections() < 2 || w.Sections() > 4 {
		t.Fatalf("Sections = %d", w.Sections())
	}
	buf, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Blocks() != 40 {
		t.Fatalf("reader Blocks = %d", r.Blocks())
	}
	for i := range want {
		g, err := r.GeometryOf(i)
		if err != nil {
			t.Fatal(err)
		}
		if g != wantG[i] {
			t.Fatalf("block %d geometry %v, want %v", i, g, wantG[i])
		}
		data, g2, err := r.Next()
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if g2 != wantG[i] {
			t.Fatalf("block %d replay geometry %v", i, g2)
		}
		for j := range data {
			if math.Abs(data[j]-want[i][j]) > 1e-10*(1+1e-9) {
				t.Fatalf("block %d point %d out of bound", i, j)
			}
		}
	}
	// End of stream.
	data, _, err := r.Next()
	if err != nil || data != nil {
		t.Fatalf("expected end of stream, got %v, %v", data, err)
	}
	// Reset replays from the start.
	r.Reset()
	data, g, err := r.Next()
	if err != nil || g != wantG[0] {
		t.Fatalf("after Reset: %v, %v", g, err)
	}
	for j := range data {
		if math.Abs(data[j]-want[0][j]) > 1e-10*(1+1e-9) {
			t.Fatal("Reset replay mismatch")
		}
	}
}

func TestWriterValidation(t *testing.T) {
	if _, err := NewWriter(core.Config{}); err == nil {
		t.Error("invalid base config accepted")
	}
	w, err := NewWriter(core.Defaults(1, 1, 1e-10))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBlock(Geometry{0, 5}, nil); err == nil {
		t.Error("invalid geometry accepted")
	}
	if err := w.WriteBlock(Geometry{2, 2}, make([]float64, 3)); err == nil {
		t.Error("wrong block size accepted")
	}
}

// TestSectionErrorNamesSection: a section that cannot be compressed
// (values near 1e300 under EB 1e-300 need a 65-bit ECQ) fails Bytes
// with an error naming that section, at every worker count.
func TestSectionErrorNamesSection(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		base := core.Defaults(1, 1, 1e-300)
		base.Workers = workers
		w, err := NewWriter(base)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteBlock(Geometry{2, 2}, []float64{0, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteBlock(Geometry{2, 4}, []float64{1e300, -1e300, 1e299, 2e299, 1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
		_, err = w.Bytes()
		if err == nil || !strings.HasPrefix(err.Error(), "container: section 1: ") {
			t.Errorf("workers=%d: Bytes error = %v, want one naming section 1", workers, err)
		}
	}
}

func TestReaderCorruption(t *testing.T) {
	w, _ := NewWriter(core.Defaults(1, 1, 1e-10))
	_ = w.WriteBlock(Geometry{2, 2}, make([]float64, 4))
	buf, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("XXXX"), buf[4:]...),
		"short":     buf[:10],
		"truncated": buf[:len(buf)-2],
		"version":   append(append([]byte{}, buf[:4]...), append([]byte{9}, buf[5:]...)...),
	}
	for name, c := range cases {
		if _, err := NewReader(c); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := NewReader(buf); err != nil {
		t.Fatalf("valid container rejected: %v", err)
	}
}

func TestGeometryOfBounds(t *testing.T) {
	w, _ := NewWriter(core.Defaults(1, 1, 1e-10))
	_ = w.WriteBlock(Geometry{2, 2}, make([]float64, 4))
	buf, _ := w.Bytes()
	r, err := NewReader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.GeometryOf(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := r.GeometryOf(1); err == nil {
		t.Error("out-of-range index accepted")
	}
}

// TestParallelBytesDeterministic pins the Bytes() determinism contract:
// the serialized container is byte-identical whether sections are
// compressed serially or concurrently.
func TestParallelBytesDeterministic(t *testing.T) {
	build := func(workers int) []byte {
		rng := rand.New(rand.NewSource(99))
		base := core.Defaults(1, 1, 1e-10)
		base.Workers = workers
		w, err := NewWriter(base)
		if err != nil {
			t.Fatal(err)
		}
		geos := []Geometry{{4, 9}, {6, 10}, {9, 4}, {10, 6}, {3, 3}}
		for i := 0; i < 60; i++ {
			g := geos[i%len(geos)]
			if err := w.WriteBlock(g, patterned(rng, g, 1e-6)); err != nil {
				t.Fatal(err)
			}
		}
		buf, err := w.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	serial := build(1)
	for _, workers := range []int{0, 2, 4, 7} {
		if par := build(workers); !bytes.Equal(serial, par) {
			t.Fatalf("workers=%d: container bytes differ from serial", workers)
		}
	}
	// And the parallel-built container must replay correctly.
	r, err := NewReader(serial)
	if err != nil {
		t.Fatal(err)
	}
	if r.Blocks() != 60 {
		t.Fatalf("Blocks() = %d, want 60", r.Blocks())
	}
}

// TestSectionLogRecords: Bytes logs one "section compressed" Info
// record per section — index, quartet class, block count and raw and
// compressed byte counts — whether the sections are compressed one
// after another or concurrently.
func TestSectionLogRecords(t *testing.T) {
	geos := []Geometry{{36, 36}, {60, 60}, {60, 100}}
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			var logs bytes.Buffer
			base := core.Defaults(1, 1, 1e-10)
			base.Workers = workers
			base.Logger = slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: slog.LevelInfo}))
			w, err := NewWriter(base)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			blocks := make([]int, len(geos))
			for i := 0; i < 9; i++ {
				s := i % len(geos)
				if err := w.WriteBlock(geos[s], patterned(rng, geos[s], 1e-6)); err != nil {
					t.Fatal(err)
				}
				blocks[s]++
			}
			buf, err := w.Bytes()
			if err != nil {
				t.Fatal(err)
			}

			seen := make(map[int]bool)
			streamBytes := 0
			for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
				var rec struct {
					Msg      string `json:"msg"`
					Section  *int   `json:"section"`
					Class    string `json:"class"`
					Blocks   int    `json:"blocks"`
					BytesIn  int    `json:"bytes_in"`
					BytesOut int    `json:"bytes_out"`
				}
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatalf("log line is not JSON: %v\n%s", err, line)
				}
				if rec.Msg != "section compressed" {
					continue
				}
				if rec.Section == nil || *rec.Section < 0 || *rec.Section >= len(geos) || seen[*rec.Section] {
					t.Fatalf("bad or repeated section in %s", line)
				}
				s := *rec.Section
				seen[s] = true
				g := geos[s]
				if want := fmt.Sprintf("%dx%d", g.NumSB, g.SBSize); rec.Class != want {
					t.Errorf("section %d class %q, want %q", s, rec.Class, want)
				}
				if rec.Blocks != blocks[s] || rec.BytesIn != blocks[s]*g.BlockSize()*8 {
					t.Errorf("section %d: %d blocks, %d bytes in; want %d, %d",
						s, rec.Blocks, rec.BytesIn, blocks[s], blocks[s]*g.BlockSize()*8)
				}
				if rec.BytesOut <= 0 {
					t.Errorf("section %d: bytes_out %d", s, rec.BytesOut)
				}
				streamBytes += rec.BytesOut
			}
			if len(seen) != len(geos) {
				t.Fatalf("%d section records, want %d:\n%s", len(seen), len(geos), logs.String())
			}
			if streamBytes >= len(buf) {
				t.Errorf("section streams total %d bytes, container only %d", streamBytes, len(buf))
			}
		})
	}
}
