package telemetry

import (
	"encoding/binary"
	"encoding/json"
	"expvar"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	// A zero observer hands out the zero timer: no clock read at Stage,
	// none at End, and no allocation on either side.
	var obs Observer
	if tm := obs.Stage(StageEncode); tm != (StageTimer{}) {
		t.Fatalf("zero observer read the clock: timer %+v", tm)
	}
	if allocs := testing.AllocsPerRun(100, func() { obs.Stage(StageWrite).End() }); allocs != 0 {
		t.Fatalf("zero observer stage timer allocates %v/op, want 0", allocs)
	}
	if obs.DebugEnabled() {
		t.Fatal("zero observer reports Debug enabled")
	}
	obs.Info("dropped")
	c.RecordBlock(TraceRecord{BytesIn: 8, BytesOut: 4}, nil, nil)
	c.AddFramingBytes(32)
	c.RecordDecodedBlock(4, 8)
	if snap := c.Snapshot(); snap != nil {
		t.Fatalf("nil collector snapshot = %+v, want nil", snap)
	}
	c.Publish("nil-collector") // must not panic or register
	if expvar.Get("nil-collector") != nil {
		t.Fatal("nil collector published an expvar")
	}
}

func TestCounterAndHistogram(t *testing.T) {
	var h Histogram
	vals := []uint64{0, 1, 15, 16, 17, 32, 33, 34, 1023, 1024, 1087, 1088}
	var sum uint64
	for _, v := range vals {
		h.Observe(v)
		sum += v
	}
	if h.Count() != uint64(len(vals)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(vals))
	}
	if h.Sum() != sum {
		t.Fatalf("sum = %d, want %d", h.Sum(), sum)
	}
	snap := h.Snapshot()
	// Log-linear bounds with k = 4: 0..31 get a bucket each, [32, 64)
	// splits into 16 buckets of width 2 ({32,33}, {34,35}, …), and
	// [1024, 2048) into 16 of width 64, so 1023 ends [992, 1023] and
	// 1024..1087 share one bucket.
	want := map[uint64]uint64{0: 1, 1: 1, 15: 1, 16: 1, 17: 1, 33: 2, 35: 1, 1023: 1, 1087: 2, 1151: 1}
	if len(snap.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want uppers %v", snap.Buckets, want)
	}
	for _, b := range snap.Buckets {
		if want[b.Le] != b.N {
			t.Errorf("bucket le=%d n=%d, want n=%d", b.Le, b.N, want[b.Le])
		}
	}
}

// TestHistogramQuantileAccuracy holds Quantile to its stated bound
// against an exact sort of 20,000 lognormal values: at every tested q
// it lies in [exact, exact·(1+2^-k)]. The rank test must agree with the
// exact rule — fewer than 1 in 100 values above — everywhere except
// within one bucket of the 99th percentile.
func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	vals := make([]uint64, 20000)
	var h Histogram
	for i := range vals {
		// Nanosecond latencies: median about 160 µs, a long right tail.
		vals[i] = uint64(math.Exp(12 + 1.5*rng.NormFloat64()))
		h.Observe(vals[i])
	}
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	n := len(sorted)
	rankOf := func(q float64) uint64 { return sorted[int(math.Ceil(q*float64(n)))-1] }
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		exact, got := rankOf(q), h.Quantile(q)
		if got < exact || float64(got) > float64(exact)*(1+1.0/(1<<histSubBits)) {
			t.Errorf("Quantile(%g) = %d, exact %d: outside [exact, exact·(1+2^-%d)]", q, got, exact, histSubBits)
		}
	}

	p99 := bucketOf(rankOf(0.99))
	for i, v := range sorted {
		if i > 0 && sorted[i-1] == v {
			continue
		}
		greater := n - sort.Search(n, func(j int) bool { return sorted[j] > v })
		exact := greater == 0 || greater*100 < n
		if got := h.InSlowest1Pct(v); got != exact && (bucketOf(v) < p99-1 || bucketOf(v) > p99+1) {
			t.Errorf("InSlowest1Pct(%d) = %v with %d of %d values above it, %d buckets from the p99's",
				v, got, greater, n, bucketOf(v)-p99)
		}
	}
	var empty Histogram
	if !empty.InSlowest1Pct(123) || empty.Quantile(0.5) != 0 {
		t.Error("empty histogram: the first value must rank in the slowest 1%, and quantiles read 0")
	}
}

// FuzzHistogram checks the bucket layout on every fuzzed value — its
// bucket ends at or above it, the bucket below ends below it, and from
// 2^k up no bucket is wider than 2^-k of its lower bound — and, over
// the whole sequence, that Quantile is monotone in q and Quantile(1)
// is at least the largest value.
func FuzzHistogram(f *testing.F) {
	for _, vs := range [][]uint64{
		{0}, {1 << histSubBits}, {1 << 63}, {math.MaxUint64},
		{0, 1 << histSubBits, 1 << 63, math.MaxUint64, 1000, 1001, 1 << 40},
	} {
		var seed []byte
		for _, v := range vs {
			seed = binary.LittleEndian.AppendUint64(seed, v)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var h Histogram
		var largest uint64
		for ; len(data) >= 8; data = data[8:] {
			v := binary.LittleEndian.Uint64(data)
			h.Observe(v)
			largest = max(largest, v)
			b := bucketOf(v)
			if b < 0 || b >= numHistBuckets || bucketMax(b) < v {
				t.Fatalf("value %d: bucket %d ends at %d", v, b, bucketMax(b))
			}
			lower := uint64(0)
			if b > 0 {
				if lower = bucketMax(b-1) + 1; lower > v {
					t.Fatalf("value %d: bucket %d below it ends at %d", v, b-1, lower-1)
				}
			}
			if width := bucketMax(b) - lower + 1; v >= 1<<histSubBits && width > lower>>histSubBits {
				t.Fatalf("value %d: bucket [%d, %d] is wider than 2^-%d of its lower bound", v, lower, bucketMax(b), histSubBits)
			}
		}
		prev := uint64(0)
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			got := h.Quantile(q)
			if got < prev {
				t.Fatalf("Quantile(%g) = %d below a lower q's %d", q, got, prev)
			}
			prev = got
		}
		if h.Count() > 0 && prev < largest {
			t.Fatalf("Quantile(1) = %d below the largest value %d", prev, largest)
		}
	})
}

func TestStageTimerMinMax(t *testing.T) {
	c := New(0)
	for _, d := range []time.Duration{5 * time.Microsecond, time.Millisecond, 20 * time.Microsecond} {
		c.stages[StageEncode].observe(d)
	}
	snap := c.Snapshot()
	ss, ok := snap.Stages[StageEncode.String()]
	if !ok {
		t.Fatalf("no encode stage in %+v", snap.Stages)
	}
	if ss.Count != 3 {
		t.Fatalf("count = %d, want 3", ss.Count)
	}
	if ss.MinNS != uint64(5*time.Microsecond) || ss.MaxNS != uint64(time.Millisecond) {
		t.Fatalf("min/max = %d/%d", ss.MinNS, ss.MaxNS)
	}
	if ss.TotalNS != uint64(1025*time.Microsecond) || ss.AvgNS != ss.TotalNS/3 {
		t.Fatalf("total/avg = %d/%d", ss.TotalNS, ss.AvgNS)
	}
	// Negative durations clamp to zero rather than corrupting counters.
	c.stages[StageEncode].observe(-time.Second)
	if got := c.Snapshot().Stages[StageEncode.String()]; got.MinNS != 0 || got.Count != 4 {
		t.Fatalf("after negative observe: %+v", got)
	}
}

func TestRecordBlockAndSnapshotTotals(t *testing.T) {
	c := New(4)
	kinds := []BlockEncoding{EncType0, EncDense, EncSparse, EncDense, EncDense}
	for i, k := range kinds {
		c.RecordBlock(TraceRecord{
			SubBlocks: 4,
			Encoding:  k,
			BytesIn:   288,
			BytesOut:  10 + i,
		}, nil, nil)
	}
	c.AddFramingBytes(32)
	c.AddFramingBytes(5)
	snap := c.Snapshot()
	if snap.Blocks != 5 {
		t.Fatalf("blocks = %d", snap.Blocks)
	}
	if snap.BytesIn != 5*288 {
		t.Fatalf("bytes in = %d", snap.BytesIn)
	}
	wantPayload := uint64(10 + 11 + 12 + 13 + 14)
	if snap.BytesOutPayload != wantPayload || snap.BytesOutFraming != 37 ||
		snap.BytesOutTotal != wantPayload+37 {
		t.Fatalf("bytes out = %d+%d=%d", snap.BytesOutPayload, snap.BytesOutFraming, snap.BytesOutTotal)
	}
	if snap.Encodings["type0"] != 1 || snap.Encodings["dense"] != 3 || snap.Encodings["sparse"] != 1 {
		t.Fatalf("encodings = %v", snap.Encodings)
	}
	if snap.BlockBytes.Count != 5 || snap.BlockBytes.Sum != wantPayload {
		t.Fatalf("block bytes hist = %+v", snap.BlockBytes)
	}
	// Ring depth 4: the oldest of 5 records was evicted; ids are 0..4
	// in completion order, so traces are 1..4 oldest-first.
	if len(snap.Traces) != 4 {
		t.Fatalf("traces = %+v", snap.Traces)
	}
	for i, tr := range snap.Traces {
		if tr.Block != uint64(i+1) {
			t.Fatalf("trace %d has block id %d, want %d", i, tr.Block, i+1)
		}
	}
}

func TestTraceDisabled(t *testing.T) {
	c := New(-1)
	c.RecordBlock(TraceRecord{BytesIn: 8, BytesOut: 2}, nil, nil)
	snap := c.Snapshot()
	if snap.Blocks != 1 || len(snap.Traces) != 0 {
		t.Fatalf("blocks=%d traces=%v", snap.Blocks, snap.Traces)
	}
}

// TestConcurrentExactness drives many goroutines into one collector
// and asserts counters and histograms are exact, not approximate —
// the invariant the parallel pipeline's accounting relies on. Run
// under -race this also proves the mutation paths are data-race free.
func TestConcurrentExactness(t *testing.T) {
	c := New(8)
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.RecordBlock(TraceRecord{
					Encoding: BlockEncoding(i % int(numBlockEncodings)),
					BytesIn:  64,
					BytesOut: i % 32,
				}, nil, nil)
				c.AddFramingBytes(1)
				obs := Observer{Collector: c}
				obs.Stage(StageEncode).End()
				c.RecordDecodedBlock(2, 64)
			}
		}(w)
	}
	wg.Wait()
	snap := c.Snapshot()
	const total = workers * perWorker
	if snap.Blocks != total || snap.BlocksDecoded != total {
		t.Fatalf("blocks = %d/%d, want %d", snap.Blocks, snap.BlocksDecoded, total)
	}
	if snap.BytesIn != total*64 || snap.BytesOutFraming != total {
		t.Fatalf("bytes in/framing = %d/%d", snap.BytesIn, snap.BytesOutFraming)
	}
	var encSum uint64
	for _, n := range snap.Encodings {
		encSum += n
	}
	if encSum != total {
		t.Fatalf("encoding counts sum to %d, want %d", encSum, total)
	}
	if snap.BlockBytes.Count != total {
		t.Fatalf("histogram count = %d, want %d", snap.BlockBytes.Count, total)
	}
	var bucketSum uint64
	for _, b := range snap.BlockBytes.Buckets {
		bucketSum += b.N
	}
	if bucketSum != total {
		t.Fatalf("histogram buckets sum to %d, want %d", bucketSum, total)
	}
	if st := snap.Stages[StageEncode.String()]; st.Count != total {
		t.Fatalf("stage count = %d, want %d", st.Count, total)
	}
	if len(snap.Traces) != 8 {
		t.Fatalf("ring kept %d records, want 8", len(snap.Traces))
	}
}

func TestSnapshotJSONAndExpvar(t *testing.T) {
	c := New(2)
	c.RecordBlock(TraceRecord{SubBlocks: 2, Encoding: EncDense, BytesIn: 16, BytesOut: 4, EBSlack: 1e-11}, nil, nil)
	c.AddFramingBytes(3)
	var decoded map[string]any
	if err := json.Unmarshal(c.Snapshot().JSON(), &decoded); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	for _, key := range []string{"blocks", "bytes_in", "bytes_out_total", "encodings", "stages", "traces"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("snapshot JSON missing %q", key)
		}
	}
	trs := decoded["traces"].([]any)
	tr := trs[0].(map[string]any)
	if tr["encoding"] != "dense" {
		t.Fatalf("trace encoding = %v, want dense", tr["encoding"])
	}

	c.Publish("telemetry-test")
	v := expvar.Get("telemetry-test")
	if v == nil {
		t.Fatal("Publish did not register")
	}
	var fromVar map[string]any
	if err := json.Unmarshal([]byte(v.String()), &fromVar); err != nil {
		t.Fatalf("expvar value does not parse: %v", err)
	}
	if fromVar["bytes_out_total"].(float64) != 7 {
		t.Fatalf("expvar total = %v, want 7", fromVar["bytes_out_total"])
	}
	c.Publish("telemetry-test") // idempotent, must not panic
}

func TestStageAndEncodingNames(t *testing.T) {
	for s := Stage(0); s < numStages; s++ {
		if s.String() == "stage?" {
			t.Errorf("stage %d has no name", s)
		}
	}
	if Stage(200).String() != "stage?" {
		t.Error("out-of-range stage name")
	}
	for e := BlockEncoding(0); e < numBlockEncodings; e++ {
		if e.String() == "enc?" {
			t.Errorf("encoding %d has no name", e)
		}
	}
	if BlockEncoding(200).String() != "enc?" {
		t.Error("out-of-range encoding name")
	}
}
