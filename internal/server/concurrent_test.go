package server

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/blockcache"
	"repro/internal/core"
	"repro/internal/telemetry/slo"
)

// testStream is one upload and the serial compress→decompress of its
// data, the oracle its reads are compared against.
type testStream struct {
	tenant, id string
	raw, dec   []byte // little-endian float64
}

// newTestStream builds ERI-shaped data: each block's sub-blocks repeat
// one random pattern at random scales, plus noise of a few error
// bounds, so the stream compresses like integral tapes rather than
// white noise.
func newTestStream(t *testing.T, cfg core.Config, tenant, id string, seed uint64, blocks int) testStream {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0))
	vals := make([]float64, 0, blocks*cfg.BlockSize())
	pattern := make([]float64, cfg.SBSize)
	for range blocks {
		for i := range pattern {
			pattern[i] = 2*rng.Float64() - 1
		}
		for range cfg.NumSB {
			scale := 1e-6 * rng.Float64()
			for _, p := range pattern {
				vals = append(vals, scale*p+40*cfg.ErrorBound*(2*rng.Float64()-1))
			}
		}
	}
	comp, err := core.Compress(vals, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.Decompress(comp, 1)
	if err != nil {
		t.Fatal(err)
	}
	return testStream{tenant: tenant, id: id, raw: float64Bytes(vals), dec: float64Bytes(dec)}
}

func float64Bytes(vals []float64) []byte {
	out := make([]byte, 0, len(vals)*8)
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// parallel runs fn(0), …, fn(n-1) on n goroutines, waits for all of
// them, and fails the test from the test goroutine with every error
// they returned.
func parallel(t *testing.T, n int, fn func(i int) error) {
	t.Helper()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentTenants uploads and reads the streams of two tenants
// from many goroutines at once. Every read must match the serial
// decode byte for byte, the cache counters must account for every
// read, /debug/slo must cover both tenants with every objective, and
// /debug/traces must hold every request, the slowest 1% of reads among
// them. The tracer keeps everything (keep_fraction 1, a ring deeper
// than the request count), so the retention checks are exact; they say
// nothing about tail sampling under the production configuration.
func TestConcurrentTenants(t *testing.T) {
	const (
		writers          = 4
		streamsPerWriter = 2
		blocksPerStream  = 8
		readers          = 8
		readsPerReader   = 50
		reads            = readers * readsPerReader
		requests         = writers*streamsPerWriter + reads
	)
	codec := core.Defaults(4, 9, 1e-10)
	blockBytes := codec.BlockSize() * 8
	tenants := []string{"tenant-a", "tenant-b"}
	streams := make([]testStream, writers*streamsPerWriter)
	for i := range streams {
		tenant := tenants[i/streamsPerWriter%len(tenants)]
		streams[i] = newTestStream(t, codec, tenant, fmt.Sprintf("s%d", i), uint64(i+1), blocksPerStream)
	}

	for _, tc := range []struct {
		name       string
		cacheBytes int64
		checkCache func(t *testing.T, st blockcache.Stats)
	}{
		{"cache holds the working set", 64 << 20, func(t *testing.T, st blockcache.Stats) {
			// Nothing is evicted, so every block decodes at most once
			// and some reads are served from the cache.
			if st.Evictions != 0 {
				t.Errorf("evictions=%d, want 0 with a cache that holds every block", st.Evictions)
			}
			if distinct := uint64(len(streams) * blocksPerStream); st.Fills > distinct {
				t.Errorf("fills=%d exceed the %d distinct blocks: a block decoded twice", st.Fills, distinct)
			}
			if st.Hits == 0 {
				t.Error("no cache hits")
			}
		}},
		{"two-block cache", 2 * int64(blockBytes), func(t *testing.T, st blockcache.Stats) {
			if st.Evictions == 0 {
				t.Error("a two-block cache never evicted")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t, codec, 2)
			cfg.CacheBytes = tc.cacheBytes
			cfg.Tenants = map[string]TenantConfig{tenants[0]: {}, tenants[1]: {}}
			cfg.Trace = TraceConfig{SampleRate: 1, KeepFraction: 1, RingDepth: requests + 16}
			srv, err := New(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			client := ts.Client()

			parallel(t, writers, func(w int) error {
				for _, s := range streams[w*streamsPerWriter : (w+1)*streamsPerWriter] {
					url := ts.URL + "/v1/streams?id=" + s.id
					if _, _, err := call(client, http.MethodPost, url, s.tenant, s.raw, http.StatusCreated); err != nil {
						return err
					}
				}
				return nil
			})

			type readSample struct {
				d       time.Duration
				traceID string
			}
			samples := make([][]readSample, readers)
			parallel(t, readers, func(r int) error {
				rng := rand.New(rand.NewPCG(uint64(r), 1))
				for range readsPerReader {
					s, b := streams[rng.IntN(len(streams))], rng.IntN(blocksPerStream)
					start := time.Now()
					got, traceID, err := call(client, http.MethodGet, blockURL(ts.URL, s.id, b), s.tenant, nil, http.StatusOK)
					if err != nil {
						return err
					}
					samples[r] = append(samples[r], readSample{time.Since(start), traceID})
					if !bytes.Equal(got, s.dec[b*blockBytes:(b+1)*blockBytes]) {
						return fmt.Errorf("%s/%s block %d: served bytes differ from the serial decode", s.tenant, s.id, b)
					}
					if traceID == "" {
						return fmt.Errorf("%s/%s block %d: response has no traceparent", s.tenant, s.id, b)
					}
				}
				return nil
			})

			// Each read is exactly one cache lookup, and each miss one
			// fill.
			st := srv.cache.Stats()
			if got := st.Hits + st.Misses + st.DedupWaits; got != reads {
				t.Errorf("hits+misses+dedup_waits=%d, want one lookup per read (%d)", got, reads)
			}
			if st.Fills != st.Misses {
				t.Errorf("fills=%d misses=%d: want one fill per miss", st.Fills, st.Misses)
			}
			tc.checkCache(t, st)

			var doc struct {
				TraceEvents []traceEventJSON `json:"traceEvents"`
			}
			if code := getJSON(t, ts, "/debug/traces", &doc); code != http.StatusOK {
				t.Fatalf("/debug/traces: status %d", code)
			}
			retained := make(map[string]bool)
			spans := 0
			for _, ev := range doc.TraceEvents {
				if ev.Ph == "X" {
					spans++
					retained[ev.Args["trace_id"]] = true
				}
			}
			if len(retained) != requests {
				t.Errorf("/debug/traces holds %d traces, want every request (%d)", len(retained), requests)
			}
			if spans <= len(retained) {
				t.Errorf("%d spans in %d traces: want children under every root", spans, len(retained))
			}
			all := slices.Concat(samples...)
			slices.SortFunc(all, func(a, b readSample) int { return cmp.Compare(b.d, a.d) })
			for _, s := range all[:reads/100] {
				if !retained[s.traceID] {
					t.Errorf("the trace of a slowest-1%% read (%v, trace %s) was not retained", s.d, s.traceID)
				}
			}
			trs := srv.tracer.Stats()
			if trs.TracesRetained != requests {
				t.Errorf("tracer retained %d traces, want %d", trs.TracesRetained, requests)
			}
			if trs.SpansDropped != 0 {
				t.Errorf("tracer dropped %d spans", trs.SpansDropped)
			}

			var rep slo.Report
			if code := getJSON(t, ts, "/debug/slo", &rep); code != http.StatusOK {
				t.Fatalf("/debug/slo: status %d", code)
			}
			for _, tn := range tenants {
				for _, o := range slo.Objectives() {
					if _, ok := rep.Find(tn, o); !ok {
						t.Errorf("/debug/slo has no %s objective for %s", o, tn)
					}
				}
				// Only 5xx responses are bad error_rate events, and a
				// clean run has none.
				if st, _ := rep.Find(tn, slo.ErrorRate); st.State != slo.StateOK || st.LifetimeBad != 0 {
					t.Errorf("%s error_rate: state=%s bad=%v after a clean run", tn, st.State, st.LifetimeBad)
				}
				if p99 := rep.Tenants[tn].Latency.ReadP99MS; p99 <= 0 {
					t.Errorf("%s read p99 = %v ms, want > 0", tn, p99)
				}
			}
		})
	}
}
