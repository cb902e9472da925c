// Package blockcache is pastrid's hot-block cache: a byte-capped LRU
// of decoded float64 blocks with per-tenant sub-caps and
// singleflight-style fill deduplication.
//
// The cache sits between the HTTP block-read path and the on-disk
// store. Under a heavy random-read fleet the same hot block is often
// requested by many readers at once; without deduplication each miss
// would decode the block once per waiter. GetOrFill guarantees
// *exactly one* fill per (key, miss) regardless of how many readers
// pile onto it — concurrent requesters of the same missing key block
// on the leader's fill and share its result. The telemetry counters
// (Hits/Misses/Fills/DedupWaits/Evictions) are exact, which is what
// lets the hammer tests use them as an exactly-once oracle.
//
// Eviction is least-recently-used by byte size: inserting past the
// global capacity (or the key's tenant sub-cap) evicts from the cold
// end until the cache fits. Entries are immutable once inserted —
// readers receive a shared slice and must not write into it (the
// server copies into the response writer, never mutates).
package blockcache

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// Key identifies one decoded block.
type Key struct {
	Tenant string
	Stream string
	Block  int
}

// entry is one resident cache line.
type entry struct {
	key  Key
	data []float64
	elem *list.Element // position in the global LRU list
}

// flight is one in-progress fill; waiters block on done.
type flight struct {
	done chan struct{}
	data []float64
	err  error
}

// Stats is a point-in-time view of the cache counters.
type Stats struct {
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Fills      uint64 `json:"fills"`
	DedupWaits uint64 `json:"dedup_waits"`
	Evictions  uint64 `json:"evictions"`
	Entries    int    `json:"entries"`
	Bytes      int64  `json:"bytes"`
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is the LRU. All methods are safe for concurrent use.
type Cache struct {
	capBytes    int64
	tenantCaps  map[string]int64
	mu          sync.Mutex
	entries     map[Key]*entry
	lru         *list.List // front = most recent, back = eviction candidate
	bytes       int64
	tenantBytes map[string]int64
	flights     map[Key]*flight

	hits       telemetry.Counter
	misses     telemetry.Counter
	fills      telemetry.Counter
	dedupWaits telemetry.Counter
	evictions  telemetry.Counter
}

// New returns a cache holding at most capBytes of decoded block data
// (8 bytes per float64; a non-positive cap disables caching but keeps
// the singleflight dedup). tenantCaps optionally sub-caps individual
// tenants; entries absent from the map share only the global cap.
func New(capBytes int64, tenantCaps map[string]int64) *Cache {
	caps := make(map[string]int64, len(tenantCaps))
	for t, c := range tenantCaps {
		caps[t] = c
	}
	return &Cache{
		capBytes:    capBytes,
		tenantCaps:  caps,
		entries:     make(map[Key]*entry),
		lru:         list.New(),
		tenantBytes: make(map[string]int64),
		flights:     make(map[Key]*flight),
	}
}

func blockBytes(data []float64) int64 { return int64(len(data)) * 8 }

// GetOrFill returns the cached block for k, or runs fill exactly once
// (across all concurrent callers of the same key) and caches its
// result. A fill error is returned to the leader and every waiter, and
// nothing is cached. The returned slice is shared — callers must treat
// it as read-only.
//
// The lookup is traced under sp: the outcome (hit, dedup_wait or miss)
// is annotated onto it, waiters record a cache.dedup_wait child span
// covering the block on the leader, and the leader's fill runs under a
// cache.fill child span which is passed to fill so the store can
// attach its own children. A nil sp (or a non-recording one) disables
// all of it.
func (c *Cache) GetOrFill(k Key, sp *trace.Span, fill func(*trace.Span) ([]float64, error)) ([]float64, error) {
	c.mu.Lock()
	if e, ok := c.entries[k]; ok {
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		c.hits.Add(1)
		sp.Annotate("cache_outcome", "hit")
		return e.data, nil
	}
	if fl, ok := c.flights[k]; ok {
		c.mu.Unlock()
		c.dedupWaits.Add(1)
		sp.Annotate("cache_outcome", "dedup_wait")
		wsp := sp.StartChild("cache.dedup_wait")
		<-fl.done
		wsp.End()
		if fl.err != nil {
			return nil, fl.err
		}
		// The leader's result may already have been evicted again;
		// returning it directly is still coherent (it was the block's
		// decoded bytes). Sharing it avoids a refill stampede.
		return fl.data, nil
	}
	// This caller is the leader for k.
	fl := &flight{done: make(chan struct{})}
	c.flights[k] = fl
	c.mu.Unlock()
	c.misses.Add(1)
	sp.Annotate("cache_outcome", "miss")

	fsp := sp.StartChild("cache.fill")
	data, err := fill(fsp)
	if err != nil {
		fsp.SetError(err)
	}
	fsp.End()
	fl.data, fl.err = data, err
	if err == nil {
		c.fills.Add(1)
	}
	c.mu.Lock()
	// A flight InvalidateStream detached belongs to a deleted stream: it
	// must not be cached, and k may already have a newer flight.
	if c.flights[k] == fl {
		delete(c.flights, k)
		if err == nil {
			c.insertLocked(k, data)
		}
	}
	c.mu.Unlock()
	close(fl.done)
	return data, err
}

// Get returns the cached block without filling.
func (c *Cache) Get(k Key) ([]float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(e.elem)
	return e.data, true
}

// insertLocked adds a filled block and evicts until caps hold. The
// caller holds c.mu.
func (c *Cache) insertLocked(k Key, data []float64) {
	size := blockBytes(data)
	if c.capBytes <= 0 || size > c.capBytes {
		return // caching disabled, or a single block larger than the cache
	}
	if tc, ok := c.tenantCaps[k.Tenant]; ok && tc > 0 && size > tc {
		return
	}
	if _, ok := c.entries[k]; ok {
		return // raced with another insert of the same key
	}
	e := &entry{key: k, data: data}
	e.elem = c.lru.PushFront(e)
	c.entries[k] = e
	c.bytes += size
	c.tenantBytes[k.Tenant] += size
	for c.bytes > c.capBytes {
		if !c.evictOldestLocked(nil) {
			break
		}
	}
	if tc, ok := c.tenantCaps[k.Tenant]; ok && tc > 0 {
		tenant := k.Tenant
		for c.tenantBytes[tenant] > tc {
			if !c.evictOldestLocked(&tenant) {
				break
			}
		}
	}
}

// evictOldestLocked removes the least-recently-used entry — of one
// tenant when tenant is non-nil, globally otherwise. Returns false
// when nothing evictable remains.
func (c *Cache) evictOldestLocked(tenant *string) bool {
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		if tenant != nil && e.key.Tenant != *tenant {
			continue
		}
		c.removeLocked(e)
		c.evictions.Add(1)
		return true
	}
	return false
}

func (c *Cache) removeLocked(e *entry) {
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
	size := blockBytes(e.data)
	c.bytes -= size
	c.tenantBytes[e.key.Tenant] -= size
	if c.tenantBytes[e.key.Tenant] <= 0 {
		delete(c.tenantBytes, e.key.Tenant)
	}
}

// InvalidateStream drops every cached block of one stream (used on
// delete so a re-uploaded id can never serve stale blocks). Fills of
// the stream still running are detached: their result is not cached,
// and later readers start a fresh fill instead of joining them. A read
// that started before the invalidation may still return the old block.
// It returns the number of cached blocks dropped.
func (c *Cache) InvalidateStream(tenant, stream string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.flights {
		if k.Tenant == tenant && k.Stream == stream {
			delete(c.flights, k)
		}
	}
	n := 0
	for el := c.lru.Back(); el != nil; {
		prev := el.Prev()
		e := el.Value.(*entry)
		if e.key.Tenant == tenant && e.key.Stream == stream {
			c.removeLocked(e)
			n++
		}
		el = prev
	}
	return n
}

// Keys returns the resident keys from most to least recently used —
// the oracle for eviction-order tests.
func (c *Cache) Keys() []Key {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Key, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry).key)
	}
	return out
}

// TenantBytes returns the resident bytes attributed to one tenant.
func (c *Cache) TenantBytes(tenant string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tenantBytes[tenant]
}

// Stats returns the current counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries := len(c.entries)
	bytes := c.bytes
	c.mu.Unlock()
	return Stats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Fills:      c.fills.Load(),
		DedupWaits: c.dedupWaits.Load(),
		Evictions:  c.evictions.Load(),
		Entries:    entries,
		Bytes:      bytes,
	}
}

// String summarizes the cache for logs.
func (c *Cache) String() string {
	st := c.Stats()
	return fmt.Sprintf("blockcache{entries=%d bytes=%d hit_rate=%.3f}", st.Entries, st.Bytes, st.HitRate())
}
