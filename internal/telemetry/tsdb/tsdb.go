// Package tsdb is pastrid's embedded metrics history: a fixed-memory
// ring of periodic counter snapshots with delta/rate computation over
// lookback windows. It exists because the service must be able to
// judge itself without a Prometheus server in the loop — the SLO
// burn-rate engine (internal/telemetry/slo) and the pastrid-report
// renderer both ask "how much did counter X move over the last W
// seconds", and answering that needs history, not just the current
// atomics.
//
// The design is deliberately not a time-series database: one process,
// one ring, bounded memory (depth × series count), newest-wins
// eviction, no persistence beyond an explicit JSON dump. Samples are
// whole snapshots rather than per-series append logs so one mutex
// acquisition per tick captures a mutually consistent view, and window
// lookups are a binary search over at most depth entries.
//
// Series are identified by typed Key constants rather than ad-hoc
// string literals at call sites, so the key namespace stays centrally
// defined and greppable.
package tsdb

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Key names one series in a sample. Keys are lowercase_snake
// constants; composite keys for per-tenant or per-stage series are
// built with ForTenant and StageNS, never with inline literals.
type Key string

// The canonical pastrid series schema. Per-tenant series are these
// keys wrapped in ForTenant; cache, store and request series are
// sampled from the server's own counters.
const (
	// Per-tenant request accounting (from the server's route metrics).
	KeyRequestsTotal   Key = "requests_total"
	KeyErrorsTotal     Key = "errors_total"
	KeyReadsTotal      Key = "reads_total"
	KeyReadSlowTotal   Key = "read_slow_total"
	KeyUploadsTotal    Key = "uploads_total"
	KeyUploadSlowTotal Key = "upload_slow_total"

	// Per-tenant pipeline accounting (from the tenant collectors).
	KeyBlocksTotal        Key = "blocks_total"
	KeyBlocksDecodedTotal Key = "blocks_decoded_total"
	KeyBytesInTotal       Key = "bytes_in_total"
	KeyBytesOutTotal      Key = "bytes_out_total"
	KeyStoreBytes         Key = "store_bytes"

	// Process-wide series.
	KeyCacheHitsTotal      Key = "cache_hits_total"
	KeyCacheMissesTotal    Key = "cache_misses_total"
	KeyCacheEvictionsTotal Key = "cache_evictions_total"
	KeyCacheBytes          Key = "cache_bytes"
	KeyInflightRequests    Key = "inflight_requests"
	KeyGoroutines          Key = "goroutines"
	KeyHeapAllocBytes      Key = "heap_alloc_bytes"
)

// ForTenant scopes a series key to one tenant: "tenant.<name>.<key>".
// Tenant names are validated store names (no dots), so the prefix
// parses back unambiguously with SplitTenant.
func ForTenant(tenant string, k Key) Key {
	return Key("tenant." + tenant + "." + string(k))
}

// StageNS names the cumulative wall-clock series of one pipeline
// stage: "stage_ns.<stage>". Wrap in ForTenant for per-tenant stage
// attribution.
func StageNS(stage string) Key {
	return Key("stage_ns." + stage)
}

// SplitStage decomposes a StageNS key into the stage name; ok is
// false for non-stage keys. Combine with SplitTenant to recover the
// tenant of a per-tenant stage series.
func SplitStage(k Key) (stage string, ok bool) {
	const prefix = "stage_ns."
	s := string(k)
	if len(s) <= len(prefix) || s[:len(prefix)] != prefix {
		return "", false
	}
	return s[len(prefix):], true
}

// SplitTenant decomposes a ForTenant key into tenant and base key;
// ok is false for process-wide keys.
func SplitTenant(k Key) (tenant string, base Key, ok bool) {
	const prefix = "tenant."
	s := string(k)
	if len(s) <= len(prefix) || s[:len(prefix)] != prefix {
		return "", "", false
	}
	rest := s[len(prefix):]
	for i := 0; i < len(rest); i++ {
		if rest[i] == '.' {
			return rest[:i], Key(rest[i+1:]), true
		}
	}
	return "", "", false
}

// A Sample is one tick's snapshot: a timestamp plus the cumulative
// counter values captured at that instant. Values is written once by
// the sampler and read-only afterwards — samples stored in a Ring must
// not be mutated.
type Sample struct {
	UnixNano int64           `json:"unix_nano"`
	Values   map[Key]float64 `json:"values"`
}

// NewSample returns an empty sample stamped at t.
func NewSample(t time.Time) Sample {
	return Sample{UnixNano: t.UnixNano(), Values: make(map[Key]float64, 64)}
}

// Set records one series value.
func (s Sample) Set(k Key, v float64) {
	if s.Values != nil {
		s.Values[k] = v
	}
}

// Get returns the series value, or 0 when absent (a counter that did
// not exist yet reads as zero, which is exactly its delta semantics).
func (s Sample) Get(k Key) float64 { return s.Values[k] }

// Delta returns how much series k grew from old to newest, clamped at
// zero: cumulative counters only move forward, so a negative delta
// means a restart and the history before it is not comparable.
func Delta(newest, old Sample, k Key) float64 {
	d := newest.Get(k) - old.Get(k)
	if d < 0 {
		return 0
	}
	return d
}

// Rate returns Delta per second over the samples' timestamps (0 when
// the interval is not positive).
func Rate(newest, old Sample, k Key) float64 {
	dt := float64(newest.UnixNano-old.UnixNano) / 1e9
	if dt <= 0 {
		return 0
	}
	return Delta(newest, old, k) / dt
}

// DefaultDepth is the ring size used when NewRing is given a
// non-positive depth: at the default 15 s sample interval it holds a
// little over two hours of history — comfortably past the 1 h slow
// SLO window.
const DefaultDepth = 512

// A Ring is a fixed-depth buffer of samples ordered by insertion time.
// The nil *Ring is a valid empty ring (every method no-ops or returns
// zero values), so a disabled history costs callers one branch.
type Ring struct {
	mu      sync.Mutex
	samples []Sample
	next    uint64 // total appends; next%depth is the write slot
}

// NewRing returns a ring holding depth samples (non-positive ⇒
// DefaultDepth).
func NewRing(depth int) *Ring {
	if depth <= 0 {
		depth = DefaultDepth
	}
	return &Ring{samples: make([]Sample, 0, depth)}
}

// Add appends a sample, evicting the oldest once the ring is full.
// Samples must arrive in non-decreasing timestamp order (the sampler
// is the single writer).
func (r *Ring) Add(s Sample) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.samples) < cap(r.samples) {
		r.samples = append(r.samples, s)
	} else {
		r.samples[r.next%uint64(cap(r.samples))] = s
	}
	r.next++
	r.mu.Unlock()
}

// Len returns the number of retained samples.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples)
}

// Snapshot returns the retained samples, oldest first.
func (r *Ring) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.orderedLocked()
}

func (r *Ring) orderedLocked() []Sample {
	n := len(r.samples)
	out := make([]Sample, 0, n)
	if n == 0 {
		return out
	}
	start := uint64(0)
	if r.next > uint64(n) {
		start = r.next // full ring: oldest is the next write slot
	}
	for i := 0; i < n; i++ {
		out = append(out, r.samples[(start+uint64(i))%uint64(n)])
	}
	return out
}

// Before returns the newest retained sample stamped at or before
// cutoffUnixNano. When every retained sample is newer — the ring does
// not reach back that far yet — it returns the oldest sample, so a
// window query degrades to "since history began" rather than failing.
// ok is false only when the ring is empty (or nil).
func (r *Ring) Before(cutoffUnixNano int64) (Sample, bool) {
	if r == nil {
		return Sample{}, false
	}
	r.mu.Lock()
	ordered := r.orderedLocked()
	r.mu.Unlock()
	if len(ordered) == 0 {
		return Sample{}, false
	}
	best := ordered[0]
	for _, s := range ordered {
		if s.UnixNano > cutoffUnixNano {
			break
		}
		best = s
	}
	return best, true
}

// Latest returns the newest retained sample.
func (r *Ring) Latest() (Sample, bool) {
	if r == nil {
		return Sample{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) == 0 {
		return Sample{}, false
	}
	return r.samples[(r.next-1)%uint64(len(r.samples))], true
}

// History is the JSON shape served at GET /debug/history and embedded
// in ops dumps: the ring configuration plus the retained samples,
// oldest first.
type History struct {
	// Depth is the configured ring capacity; Samples holds the retained
	// entries (≤ Depth), oldest first.
	Depth   int      `json:"depth"`
	Samples []Sample `json:"samples"`
}

// History materializes the ring for export.
func (r *Ring) History() History {
	h := History{Samples: r.Snapshot()}
	if r != nil {
		r.mu.Lock()
		h.Depth = cap(r.samples)
		r.mu.Unlock()
	}
	if h.Samples == nil {
		h.Samples = []Sample{}
	}
	return h
}

// WriteJSON dumps the history with indentation.
func (h History) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(h)
}

// ParseHistory reads a History dump produced by WriteJSON (or the
// /debug/history endpoint) and validates sample ordering.
func ParseHistory(r io.Reader) (History, error) {
	var h History
	if err := json.NewDecoder(r).Decode(&h); err != nil {
		return History{}, fmt.Errorf("tsdb: parsing history: %w", err)
	}
	for i := 1; i < len(h.Samples); i++ {
		if h.Samples[i].UnixNano < h.Samples[i-1].UnixNano {
			return History{}, fmt.Errorf("tsdb: history samples out of order at index %d", i)
		}
	}
	return h, nil
}
