package telemetry

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry/trace"
)

// TestObserverStageRecordsBothViews: each End records one interval in
// the collector's stage histogram and, under a recording span, one
// finished child span named after the stage with the same duration.
func TestObserverStageRecordsBothViews(t *testing.T) {
	tr := trace.New(trace.Config{KeepFraction: 1, Seed: 1})
	root := tr.StartRequest("upload", "alice", "", time.Now())
	obs := Observer{Collector: New(-1), Trace: root}
	for i := 0; i < 3; i++ {
		st := obs.Stage(StageEncode)
		time.Sleep(time.Microsecond)
		st.End()
	}
	obs.Stage(StageWrite).End()
	tr.FinishRequest(root, time.Millisecond, false)

	ring := tr.Ring()
	if len(ring) != 1 {
		t.Fatalf("ring holds %d traces, want 1", len(ring))
	}
	spans := make(map[string][]trace.SpanData)
	for _, sd := range ring[0].Spans[1:] {
		if sd.ParentID != root.SpanID() {
			t.Fatalf("stage span %+v is not a child of the root", sd)
		}
		spans[sd.Name] = append(spans[sd.Name], sd)
	}
	snap := obs.Collector.Snapshot()
	for _, stage := range []Stage{StageEncode, StageWrite} {
		var ns uint64
		for _, sd := range spans[stage.String()] {
			ns += uint64(sd.DurationNS)
		}
		col := snap.Stages[stage.String()]
		if uint64(len(spans[stage.String()])) != col.Count || ns != col.TotalNS {
			t.Errorf("%s: %d spans totalling %d ns, collector %d totalling %d ns",
				stage, len(spans[stage.String()]), ns, col.Count, col.TotalNS)
		}
	}
	if snap.Stages[StageEncode.String()].Count != 3 {
		t.Errorf("encode count %d, want 3", snap.Stages[StageEncode.String()].Count)
	}

	// Either view alone still works: a collector without a span, and a
	// span without a collector.
	solo := Observer{Collector: New(-1)}
	solo.Stage(StageDecode).End()
	if got := solo.Collector.Snapshot().Stages[StageDecode.String()].Count; got != 1 {
		t.Errorf("collector-only decode count %d, want 1", got)
	}
	root = tr.StartRequest("read", "alice", "", time.Now())
	spanOnly := Observer{Trace: root}
	spanOnly.Stage(StageDecode).End()
	tr.FinishRequest(root, time.Millisecond, false)
	ring = tr.Ring()
	if last := ring[len(ring)-1]; len(last.Spans) != 2 || last.Spans[1].Name != "decode" {
		t.Errorf("span-only observer recorded %+v, want one decode child", last.Spans)
	}
}

// TestObserverLogging: Info reaches the logger at Info level, and
// DebugEnabled follows the handler's level.
func TestObserverLogging(t *testing.T) {
	var buf bytes.Buffer
	obs := Observer{Logger: slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))}
	obs.Info("stream compressed", slog.Int("blocks", 2))
	if !strings.Contains(buf.String(), "msg=\"stream compressed\" blocks=2") {
		t.Fatalf("Info output %q", buf.String())
	}
	if obs.DebugEnabled() {
		t.Fatal("DebugEnabled under an Info handler")
	}
	obs.Logger = slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	if !obs.DebugEnabled() {
		t.Fatal("DebugEnabled false under a Debug handler")
	}
}
