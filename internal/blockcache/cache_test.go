package blockcache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/telemetry/trace"
)

// blk returns a deterministic block of n float64s keyed by k, so tests
// can verify the cache never serves a block under the wrong key.
func blk(k Key, n int) []float64 {
	out := make([]float64, n)
	seed := uint64(len(k.Tenant))<<32 ^ uint64(len(k.Stream))<<16 ^ uint64(k.Block+1)
	for i := range out {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		out[i] = float64(seed%1000) / 7
	}
	return out
}

func key(tenant string, b int) Key { return Key{Tenant: tenant, Stream: "s", Block: b} }

func fillOK(k Key, n int) func(*trace.Span) ([]float64, error) {
	return func(*trace.Span) ([]float64, error) { return blk(k, n), nil }
}

// Eviction must be strict LRU order, with Get/GetOrFill hits promoting
// to the front. Keys() (MRU→LRU) is the oracle.
func TestCacheLRUEvictionOrder(t *testing.T) {
	// Each block is 10 floats = 80 bytes; cap fits exactly 3 blocks.
	c := New(240, nil)
	for b := 0; b < 3; b++ {
		if _, err := c.GetOrFill(key("t", b), nil, fillOK(key("t", b), 10)); err != nil {
			t.Fatal(err)
		}
	}
	wantKeys := func(want ...int) {
		t.Helper()
		got := c.Keys()
		if len(got) != len(want) {
			t.Fatalf("Keys() = %v, want blocks %v", got, want)
		}
		for i, b := range want {
			if got[i] != key("t", b) {
				t.Fatalf("Keys()[%d] = %v, want block %d (full: %v)", i, got[i], b, got)
			}
		}
	}
	wantKeys(2, 1, 0) // insertion order, newest first

	// Touch block 0: it must move to the front.
	if _, ok := c.Get(key("t", 0)); !ok {
		t.Fatal("block 0 missing")
	}
	wantKeys(0, 2, 1)

	// Insert block 3: block 1 (now coldest) must be the one evicted.
	if _, err := c.GetOrFill(key("t", 3), nil, fillOK(key("t", 3), 10)); err != nil {
		t.Fatal(err)
	}
	wantKeys(3, 0, 2)
	if _, ok := c.Get(key("t", 1)); ok {
		t.Fatal("block 1 survived eviction")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes != 240 || st.Entries != 3 {
		t.Fatalf("bytes=%d entries=%d, want 240/3", st.Bytes, st.Entries)
	}
}

// A tenant sub-cap evicts that tenant's own coldest blocks without
// touching other tenants, even when the global cap still has room.
func TestCachePerTenantCap(t *testing.T) {
	// Global cap is generous; tenant "small" may hold only 2 blocks.
	c := New(1<<20, map[string]int64{"small": 160})
	for b := 0; b < 3; b++ {
		if _, err := c.GetOrFill(key("big", b), nil, fillOK(key("big", b), 10)); err != nil {
			t.Fatal(err)
		}
	}
	for b := 0; b < 3; b++ {
		if _, err := c.GetOrFill(key("small", b), nil, fillOK(key("small", b), 10)); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.TenantBytes("small"); got != 160 {
		t.Fatalf("small tenant bytes = %d, want 160", got)
	}
	if got := c.TenantBytes("big"); got != 240 {
		t.Fatalf("big tenant bytes = %d, want 240 (must not be evicted)", got)
	}
	// small's coldest (block 0) is gone; 1 and 2 remain.
	if _, ok := c.Get(key("small", 0)); ok {
		t.Fatal("small/0 should have been evicted by the tenant cap")
	}
	for b := 1; b < 3; b++ {
		if _, ok := c.Get(key("small", b)); !ok {
			t.Fatalf("small/%d missing", b)
		}
	}
	// A single block larger than the tenant cap is served but not cached.
	huge := Key{Tenant: "small", Stream: "s", Block: 99}
	if _, err := c.GetOrFill(huge, nil, fillOK(huge, 100)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(huge); ok {
		t.Fatal("oversized block was cached past the tenant cap")
	}
}

// A fill error propagates to the caller and nothing is cached, so the
// next request retries the fill.
func TestCacheFillError(t *testing.T) {
	c := New(1<<20, nil)
	boom := errors.New("disk on fire")
	k := key("t", 0)
	if _, err := c.GetOrFill(k, nil, func(*trace.Span) ([]float64, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want fill error", err)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("failed fill was cached")
	}
	if _, err := c.GetOrFill(k, nil, fillOK(k, 10)); err != nil {
		t.Fatalf("retry after failed fill: %v", err)
	}
	st := c.Stats()
	if st.Misses != 2 || st.Fills != 1 {
		t.Fatalf("misses=%d fills=%d, want 2/1", st.Misses, st.Fills)
	}
}

// InvalidateStream removes exactly that stream's blocks.
func TestCacheInvalidateStream(t *testing.T) {
	c := New(1<<20, nil)
	for _, stream := range []string{"a", "b"} {
		for b := 0; b < 4; b++ {
			k := Key{Tenant: "t", Stream: stream, Block: b}
			if _, err := c.GetOrFill(k, nil, fillOK(k, 10)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := c.InvalidateStream("t", "a"); n != 4 {
		t.Fatalf("invalidated %d entries, want 4", n)
	}
	for b := 0; b < 4; b++ {
		if _, ok := c.Get(Key{Tenant: "t", Stream: "a", Block: b}); ok {
			t.Fatalf("a/%d survived invalidation", b)
		}
		if _, ok := c.Get(Key{Tenant: "t", Stream: "b", Block: b}); !ok {
			t.Fatalf("b/%d wrongly invalidated", b)
		}
	}
	if st := c.Stats(); st.Entries != 4 || st.Bytes != 320 {
		t.Fatalf("entries=%d bytes=%d after invalidate, want 4/320", st.Entries, st.Bytes)
	}
}

// A fill still running when its stream is invalidated is detached: a
// reader arriving after the invalidation starts its own fill instead of
// joining the old one, and the old fill's result is never cached. The
// old fill is held on a channel, so the interleaving is exact.
func TestCacheInvalidateDetachesRunningFill(t *testing.T) {
	c := New(1<<20, nil)
	k := key("t", 0)
	started, release := make(chan struct{}), make(chan struct{})
	oldDone := make(chan error, 1)
	go func() {
		_, err := c.GetOrFill(k, nil, func(*trace.Span) ([]float64, error) {
			close(started)
			<-release
			return []float64{1}, nil // the deleted stream's block
		})
		oldDone <- err
	}()
	<-started
	c.InvalidateStream("t", "s")

	type result struct {
		data []float64
		err  error
	}
	newDone := make(chan result, 1)
	go func() {
		data, err := c.GetOrFill(k, nil, func(*trace.Span) ([]float64, error) { return []float64{2}, nil })
		newDone <- result{data, err}
	}()
	// Wait until the new reader has either joined a flight or started
	// its own fill, then let the old fill finish.
	for st := c.Stats(); st.Misses+st.DedupWaits < 2; st = c.Stats() {
		runtime.Gosched()
	}
	close(release)
	if err := <-oldDone; err != nil {
		t.Fatal(err)
	}
	got := <-newDone
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.data[0] != 2 {
		t.Fatalf("reader after invalidation got %v, want the re-filled block [2]", got.data)
	}
	if data, ok := c.Get(k); !ok || data[0] != 2 {
		t.Fatalf("cache holds %v (present %v), want the re-filled block [2]", data, ok)
	}
}

// Readers hammer one stream while the test goroutine re-versions it and
// invalidates it: once InvalidateStream has returned, a read serves the
// new version, whether or not a fill of an older one was still running.
func TestCacheInvalidateUnderConcurrentFills(t *testing.T) {
	c := New(1<<20, nil)
	var version atomic.Int64
	fill := func(*trace.Span) ([]float64, error) {
		v := version.Load()
		runtime.Gosched() // widen the window in which the fill can be detached
		return []float64{float64(v)}, nil
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; ; b++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.GetOrFill(key("t", b%4), nil, fill); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for v := int64(1); v <= 200; v++ {
		version.Store(v)
		c.InvalidateStream("t", "s")
		for b := 0; b < 4; b++ {
			data, err := c.GetOrFill(key("t", b), nil, fill)
			if err != nil {
				t.Fatal(err)
			}
			if got := int64(data[0]); got < v {
				t.Fatalf("version %d: block %d served version %d after invalidation", v, b, got)
			}
		}
	}
}

// A zero-capacity cache still deduplicates concurrent fills but never
// retains entries.
func TestCacheZeroCapacity(t *testing.T) {
	c := New(0, nil)
	k := key("t", 0)
	if _, err := c.GetOrFill(k, nil, fillOK(k, 10)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("zero-cap cache retained entries: %+v", st)
	}
}

// The hammer: G goroutines × R rounds all demand the same small key
// set. The singleflight path must give *exactly one* fill per distinct
// key — the telemetry counters are the oracle — and every caller must
// receive the bytes belonging to the key it asked for.
func TestCacheConcurrentHammerExactlyOnceFill(t *testing.T) {
	const (
		goroutines = 32
		rounds     = 200
		nkeys      = 8
		blockLen   = 64
	)
	// Capacity holds every key: once filled, a key may never be evicted,
	// so exactly one fill per key is the hard invariant.
	c := New(int64(nkeys*blockLen*8), nil)
	var fillCalls [nkeys]atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				b := (g + r) % nkeys
				k := key("t", b)
				got, err := c.GetOrFill(k, nil, func(*trace.Span) ([]float64, error) {
					fillCalls[b].Add(1)
					return blk(k, blockLen), nil
				})
				if err != nil {
					errc <- err
					return
				}
				want := blk(k, blockLen)
				for i := range want {
					if got[i] != want[i] {
						errc <- fmt.Errorf("key %v served wrong data at %d", k, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for b := range fillCalls {
		if n := fillCalls[b].Load(); n != 1 {
			t.Fatalf("key %d filled %d times, want exactly 1", b, n)
		}
	}
	st := c.Stats()
	if st.Fills != nkeys {
		t.Fatalf("telemetry fills = %d, want %d", st.Fills, nkeys)
	}
	if st.Misses != nkeys {
		t.Fatalf("telemetry misses = %d, want %d (every non-leader must hit or dedup-wait)", st.Misses, nkeys)
	}
	total := st.Hits + st.Misses + st.DedupWaits
	if want := uint64(goroutines * rounds); total != want {
		t.Fatalf("hits+misses+dedupWaits = %d, want %d lookups accounted", total, want)
	}
	if st.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0 (capacity holds the whole key set)", st.Evictions)
	}
}

// Concurrent waiters on a failing fill all receive the leader's error,
// and the retry after completion runs a fresh fill.
func TestCacheConcurrentFillErrorShared(t *testing.T) {
	c := New(1<<20, nil)
	boom := errors.New("fill failed")
	k := key("t", 7)
	release := make(chan struct{})
	var calls atomic.Int64

	const waiters = 16
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.GetOrFill(k, nil, func(*trace.Span) ([]float64, error) {
				calls.Add(1)
				<-release
				return nil, boom
			})
		}(i)
	}
	// Wait until the leader is inside the fill and all other callers are
	// parked on its flight, then release.
	for {
		st := c.Stats()
		if st.Misses >= 1 && st.DedupWaits >= waiters-1 {
			break
		}
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("waiter %d: got %v, want shared fill error", i, err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("failing fill ran %d times, want 1", n)
	}
	if _, err := c.GetOrFill(k, nil, fillOK(k, 4)); err != nil {
		t.Fatalf("fresh fill after shared failure: %v", err)
	}
}
