package main

import (
	"io"
	"math"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// smokeSizes shrinks every workload to about a second of work with every
// correctness check still on.
var smokeSizes = sizes{
	molecules:     []string{"alanine", "benzene"},
	ddBlocks:      60,
	ffBlocks:      60,
	ddStream:      30,
	ffStream:      10,
	hotStreams:    2,
	hotBlocks:     8,
	coldStreams:   4,
	coldBlocks:    16,
	uploadBlocks:  8,
	deleteLag:     2,
	readRate:      2000,
	mixedRate:     200,
	setupRepeats:  2,
	traceWindow:   100 * time.Millisecond,
	overheadPairs: 2,
}

// TestSmoke runs every workload, untraced and traced, and checks that
// each run is correct and emits every metric BENCHMARK.json names for
// its mode, with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts pastrid eight times")
	}
	root, err := findRoot("..")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildPastrid(root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.workloadNames() {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			name := w
			if traced {
				want, name = spec.PerLayer, w+"_traced"
			}
			t.Run(name, func(t *testing.T) {
				o := options{workload: w, seed: 1, seconds: 1, trace: traced, out: filepath.Join(t.TempDir(), "result.json")}
				res, err := runOne(spec, root, bin, o, smokeSizes)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, res.FirstError)
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s in %s, want %s", m.Name, got.Unit, m.Unit)
					case !traced && !(got.Value > 0):
						t.Errorf("end-to-end %s = %v, want a positive value", m.Name, got.Value)
					}
				}
				if traced && res.Metrics["trace.spans_dropped"].Value != 0 {
					t.Errorf("trace.spans_dropped = %v", res.Metrics["trace.spans_dropped"].Value)
				}
			})
		}
	}
}

// sp builds a span over [start, end) µs.
func sp(name, id, parent string, start, end int64) span {
	return span{name: name, id: id, parent: parent, start: start * 1e3, end: end * 1e3}
}

func TestSelfTime(t *testing.T) {
	parent := sp("p", "p", "", 0, 100)
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"none", nil, 100 * time.Microsecond},
		{"disjoint", []span{sp("a", "a", "p", 10, 20), sp("b", "b", "p", 30, 50)}, 70 * time.Microsecond},
		{"overlapping", []span{sp("a", "a", "p", 10, 30), sp("b", "b", "p", 20, 50)}, 60 * time.Microsecond},
		{"concurrent", []span{sp("a", "a", "p", 10, 40), sp("b", "b", "p", 10, 40), sp("c", "c", "p", 15, 35)}, 70 * time.Microsecond},
		{"past the parent", []span{sp("a", "a", "p", 90, 130), sp("b", "b", "p", -20, 5)}, 85 * time.Microsecond},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

// clientTrace is a traced read that started at 0 µs, had its connection
// at 5, its first response byte at 80 and its body at 95.
func clientTrace(traceID, spanID string) *reqTrace {
	at := func(us int64) time.Time { return time.Unix(0, us*1e3) }
	return &reqTrace{traceID: traceID, spanID: spanID, start: at(0), gotConn: at(5), firstByte: at(80), end: at(95)}
}

func TestStitchRead(t *testing.T) {
	byTrace := map[string][]span{
		"t1": {
			sp("GET /v1/streams/{id}/blocks/{n}", "root", "c1", 20, 70),
			sp("cache.lookup", "look", "root", 25, 65),
			sp("cache.fill", "fill", "look", 30, 60),
			sp("store.read_at", "ra", "fill", 31, 35),
			sp("store.decode", "dec", "fill", 36, 56),
		},
		"other": {sp("GET /v1/streams/{id}/blocks/{n}", "x", "c9", 0, 10)},
	}
	lg := newLedger()
	lg.stitchAdd(clientTrace("t1", "c1"), false, 0, byTrace)
	lg.stitchAdd(clientTrace("t2", "c2"), false, 0, byTrace)
	if lg.reads != 1 || lg.unmatched != 1 {
		t.Fatalf("reads %d unmatched %d, want 1 and 1", lg.reads, lg.unmatched)
	}
	got := map[string]float64{}
	lg.report(func(name string, v float64, _ string, _ int) { got[name] = v })
	for name, want := range map[string]float64{
		"server.read_self_us.p50":       10, // 50 µs root minus the 40 µs lookup
		"blockcache.lookup_self_us.p50": 10, // 40 µs lookup minus the 30 µs fill
		"blockcache.fill_us.p50":        30,
		"store.read_at_us.p50":          4,
		"core.decode_us.p50":            20,
		"client.conn_wait_us.p99":       5,
		"client.ttfb_us.p50":            75,
		"client.body_us.p50":            15,
		"net.residual_us.p50":           25, // 75 µs to first byte, 50 of them in the daemon's root
	} {
		if math.Abs(got[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	if share := got["ledger.unattributed_share.read"]; math.Abs(share-25.0/95) > 1e-9 {
		t.Errorf("unattributed share %v, want 25/95", share)
	}
}

func TestStitchUpload(t *testing.T) {
	byTrace := map[string][]span{"t1": {
		sp("POST /v1/streams", "root", "c1", 10, 90),
		sp("compress", "comp", "root", 12, 60),
		// Two workers encode at once; their stage spans overlap.
		sp("encode", "e1", "comp", 20, 40),
		sp("encode", "e2", "comp", 25, 45),
		sp("sequencer_wait", "w1", "comp", 14, 18),
		sp("store.commit", "commit", "root", 62, 88),
		sp("store.fsync", "fs", "commit", 63, 73),
		sp("store.build_index", "bi", "commit", 75, 77),
	}}
	lg := newLedger()
	lg.stitchAdd(clientTrace("t1", "c1"), true, 2, byTrace)
	got := map[string]float64{}
	lg.report(func(name string, v float64, _ string, _ int) { got[name] = v })
	for name, want := range map[string]float64{
		"server.upload_self_us.p50": 6,  // 80 µs root minus 48 compress and 26 commit
		"core.compress_self_us.p50": 19, // 48 µs minus the union of [14,18] and [20,45]
		"core.encode_us":            20, // 40 µs of encode spans over 2 blocks
		"store.commit_self_us.p50":  14,
		"store.fsync_us.p50":        10,
		"store.build_index_us.p50":  2,
		"store.fsyncs_per_upload":   1,
	} {
		if math.Abs(got[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}

func TestNestLanes(t *testing.T) {
	spans := []span{
		sp("client", "c", "", 0, 100),
		sp("root", "r", "c", 10, 90),
		sp("encode", "e1", "r", 20, 50),
		sp("encode", "e2", "r", 30, 60), // overlaps e1 without nesting
		sp("write", "w", "r", 70, 80),
	}
	got := nestLanes(spans)
	want := []int{0, 0, 0, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lanes %v, want %v", got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	values := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(values)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestWindowedP99(t *testing.T) {
	// 3000 samples of 1 ms; the first window's last 50 took 100 ms.
	s := make(samples, 3*p99Window)
	for i := range s {
		s[i] = time.Millisecond
	}
	for i := p99Window - 50; i < p99Window; i++ {
		s[i] = 100 * time.Millisecond
	}
	if got := s.windowedP99ms(); got != 1 {
		t.Errorf("windowed p99 with one stalled window = %v ms, want 1", got)
	}
	if got, want := s[:2*p99Window-1].windowedP99ms(), s[:2*p99Window-1].ms(0.99); got != want {
		t.Errorf("one window: windowed p99 %v, want the plain p99 %v", got, want)
	}
}

func TestScaledSettle(t *testing.T) {
	var s scaled
	s.raw = append(s.raw, 10, 20)
	s.settle(2) // the reference after the first slice ran twice its nominal time
	s.raw = append(s.raw, 30)
	s.settle(0.5)
	want := samples{5, 10, 60}
	if !slices.Equal(s.nominal, want) || len(s.raw) != 3 {
		t.Errorf("nominal %v, want %v (raw %v)", s.nominal, want, s.raw)
	}
}

func TestVerdict(t *testing.T) {
	set := func(values ...float64) *summary {
		s := &summary{Values: values}
		s.Q1, s.Median, s.Q3 = quartiles(values)
		return s
	}
	lower := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "throughput_mbps", Better: "higher", Bound: 0.1}
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b *summary
		want string
	}{
		{"steady", lower, set(1, 1.01, 0.99, 1), set(1.02, 1.03, 1.01, 1.02), "ok"},
		{"slower", lower, set(1, 1.01, 0.99, 1), set(1.2, 1.21, 1.19, 1.2), "regressed"},
		{"less throughput", higher, set(100, 101, 99, 100), set(85, 86, 84, 85), "regressed"},
		{"noisy", lower, set(0.7, 1, 1.3, 1), set(0.8, 1, 1.2, 1.05), "unresolved"},
		{"noisy but every run better", lower, set(1.2, 1.5, 1.8, 1.5), set(0.7, 0.9, 1.1, 0.9), "ok"},
		{"setup floor", metricSpec{Name: "setup_s", Better: "lower", Bound: 0.25}, set(0.08, 0.08, 0.08), set(0.12, 0.12, 0.12), "ok"},
	} {
		if _, _, got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestStopProcess(t *testing.T) {
	cmd := exec.Command("sleep", "30")
	if err := cmd.Start(); err != nil {
		t.Skip("no sleep command:", err)
	}
	defer cmd.Wait()         //lint:errdrop-ok killed below; its exit status is expected to be an error
	defer cmd.Process.Kill() //lint:errdrop-ok test cleanup
	resume, err := stopProcess(cmd.Process)
	if err != nil {
		t.Fatal(err)
	}
	if !allStopped(cmd.Process.Pid) {
		t.Error("stopProcess returned before the process stopped")
	}
	resume()
	for deadline := time.Now().Add(time.Second); allStopped(cmd.Process.Pid); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("process still stopped a second after resume")
		}
	}
}

func TestCompare(t *testing.T) {
	spec := &benchSpec{
		Workloads: []struct{ Name, Why string }{{Name: "w1"}, {Name: "w2"}},
		EndToEnd: []metricSpec{
			{Name: "throughput_mbps", Unit: "MB/s", Better: "higher", Bound: 0.1},
			{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
		},
	}
	// run is a correct 20 s run whose scaled throughput is tput and
	// whose unscaled throughput is raw.
	run := func(w string, seed uint64, tput, raw float64) *result {
		return &result{
			Workload: w, Seed: seed, Correct: true, Attempted: 100,
			Metrics: map[string]metric{
				"throughput_mbps": {Value: tput, Unit: "MB/s"},
				"setup_s":         {Value: 1, Unit: "s"},
			},
			Measured:   map[string]metric{"throughput_mbps.unscaled": {Value: raw, Unit: "MB/s"}},
			Provenance: provenance{Seconds: 20},
		}
	}
	// set is four seeds of each workload in ws, with edit applied to
	// every run.
	set := func(ws []string, raw float64, edit func(*result)) *resultSet {
		s := &resultSet{}
		for _, w := range ws {
			for seed := range uint64(4) {
				r := run(w, seed, 100+float64(seed), raw+float64(seed))
				if edit != nil {
					edit(r)
				}
				s.Runs = append(s.Runs, r)
			}
		}
		s.Summary = summarize(s.Runs)
		return s
	}
	both := []string{"w1", "w2"}
	for _, tc := range []struct {
		name     string
		b        *resultSet
		want     int
		wantText string
	}{
		{"same code", set(both, 90, nil), 0, ""},
		{"failed run", func() *resultSet {
			s := set(both, 90, nil)
			s.Failed = []string{"w2 seed 3: exit status 1"}
			return s
		}(), 1, "problem: b: failed run: w2 seed 3"},
		{"incorrect run", set(both, 90, func(r *result) {
			if r.Workload == "w2" && r.Seed == 1 {
				r.Correct, r.Failed, r.FirstError = false, 2, "read s1 block 3 differs from the oracle"
			}
		}), 1, "problem: b: w2 seed 1: 2 of 100 operations failed"},
		{"operations failed", set(both, 90, func(r *result) { r.Failed = 1 }), 1, "operations failed"},
		{"workload missing", set([]string{"w1"}, 90, nil), 1, "problem: w2 throughput_mbps: in only one of the sets"},
		{"metric missing", set(both, 90, func(r *result) { delete(r.Metrics, "setup_s") }), 1, "problem: w1 setup_s: in only one of the sets"},
		{"another run length", set(both, 90, func(r *result) { r.Provenance.Seconds = 10 }), 1, "different lengths"},
		{"traced runs", set(both, 90, func(r *result) { r.Trace = true }), 1, "mix traced and untraced"},
		{"scaling hides a regression", set(both, 70, nil), 0, "ok, unscaled regressed"},
	} {
		var out strings.Builder
		got := compare(spec, set(both, 90, nil), tc.b, &out)
		if got != tc.want || !strings.Contains(out.String(), tc.wantText) {
			t.Errorf("%s: exit %d, want %d, and output should hold %q:\n%s", tc.name, got, tc.want, tc.wantText, out.String())
		}
	}
	if got := compare(spec, &resultSet{Summary: summarize(nil)}, set(both, 90, nil), io.Discard); got != 1 {
		t.Errorf("empty parent set: exit %d, want 1", got)
	}
}
