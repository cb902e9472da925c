package pastri

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestContainerPublicRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	o := NewOptions(1, 1, 1e-10)
	w, err := NewContainerWriter(o)
	if err != nil {
		t.Fatal(err)
	}
	geos := []BlockGeometry{{36, 36}, {60, 100}, {100, 100}}
	var blocks [][]float64
	var shapes []BlockGeometry
	for i := 0; i < 12; i++ {
		g := geos[rng.Intn(len(geos))]
		blk := patterned(rng, 1, g.NumSubBlocks, g.SubBlockSize, 1e-7, 1e-12)
		if err := w.WriteBlock(g, blk); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, blk)
		shapes = append(shapes, g)
	}
	if w.Blocks() != 12 || w.Sections() < 2 {
		t.Fatalf("Blocks=%d Sections=%d", w.Blocks(), w.Sections())
	}
	buf, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewContainerReader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Blocks() != 12 {
		t.Fatalf("reader Blocks=%d", r.Blocks())
	}
	for i := range blocks {
		g, err := r.GeometryOf(i)
		if err != nil || g != shapes[i] {
			t.Fatalf("GeometryOf(%d) = %v, %v", i, g, err)
		}
		data, g2, err := r.Next()
		if err != nil || g2 != shapes[i] {
			t.Fatalf("Next %d: %v, %v", i, g2, err)
		}
		for j := range data {
			if math.Abs(data[j]-blocks[i][j]) > 1e-10*(1+1e-9) {
				t.Fatalf("block %d point %d out of bound", i, j)
			}
		}
	}
	data, _, err := r.Next()
	if err != nil || data != nil {
		t.Fatalf("end of container: %v, %v", data, err)
	}
	r.Reset()
	if data, _, _ := r.Next(); data == nil {
		t.Fatal("Reset did not rewind")
	}
	if _, err := NewContainerReader([]byte("bogus")); err == nil {
		t.Fatal("bogus container accepted")
	}
	if _, err := NewContainerWriter(Options{ErrorBound: -1}); err == nil {
		t.Fatal("invalid options accepted")
	}
}

// TestContainerObserved: a container written through the public API
// reports to Options.Collector and Options.Logger. The collector
// counts every block and accounts the container's exact size, and the
// logger gets one "section compressed" record per geometry.
func TestContainerObserved(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var logs bytes.Buffer
	o := NewOptions(1, 1, 1e-10)
	o.Collector = NewCollector()
	o.Logger = slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: slog.LevelInfo}))
	w, err := NewContainerWriter(o)
	if err != nil {
		t.Fatal(err)
	}
	geos := []BlockGeometry{{36, 36}, {60, 100}, {100, 100}}
	const blocks = 9
	for i := 0; i < blocks; i++ {
		g := geos[i%len(geos)]
		if err := w.WriteBlock(g, patterned(rng, 1, g.NumSubBlocks, g.SubBlockSize, 1e-7, 1e-12)); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if snap := o.Collector.Snapshot(); snap.Blocks != blocks || snap.BytesOutTotal != uint64(len(buf)) {
		t.Errorf("collector counted %d blocks and %d bytes out, want %d and the container's %d",
			snap.Blocks, snap.BytesOutTotal, blocks, len(buf))
	}
	sections := 0
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec struct {
			Msg string `json:"msg"`
		}
		if line == "" {
			continue
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		if rec.Msg == "section compressed" {
			sections++
		}
	}
	if sections != len(geos) {
		t.Errorf("%d section compressed records, want one per geometry (%d)", sections, len(geos))
	}
}
