// Package store is pastrid's sharded on-disk block store. Each stored
// stream is one *segment* — the exact PaSTRI stream bytes the
// compression pipeline produced — paired with a *block index* that
// records where every block payload lives, its length and its CRC, so
// a single block can be served with one ReadAt and decoded without
// touching the rest of the segment (the random-access property the
// paper highlights in Sec. IV-C, taken to disk).
//
// Layout under the store root:
//
//	shard-00/ … shard-NN/         (FNV-1a hash of "tenant/id" mod shards)
//	    <tenant>.<id>.seg         segment: the compressed stream bytes
//	    <tenant>.<id>.idx         block index (see index.go)
//
// Durability and integrity:
//
//   - Writes are atomic: segment and index are built under temp names,
//     fsynced, and renamed into place index-first-removed/segment-last
//     ordering on delete, segment-then-index on commit — a crash never
//     leaves a readable-but-wrong pair, only a missing index (treated
//     as not-found debris and cleaned on open).
//   - The index carries a CRC of itself, a CRC of the whole segment,
//     and a CRC per block payload. Open verifies the index and segment
//     checksums; every block read re-verifies the payload checksum, so
//     bit rot after open is caught before bytes are served.
//   - All corruption paths return errors wrapping ErrCorrupt — never a
//     panic, never silently wrong data.
//
// Multi-tenancy: streams are namespaced by tenant, and the store
// enforces per-tenant byte quotas (segment + index sizes) at create,
// during writes, and again atomically at commit.
package store

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/telemetry/trace"
)

// Typed error classes. Callers dispatch with errors.Is; every error the
// store returns wraps exactly one of these (or is an annotated OS
// error from the underlying filesystem).
var (
	// ErrNotFound reports a tenant/id pair with no committed stream.
	ErrNotFound = errors.New("store: stream not found")
	// ErrExists reports a create for a tenant/id that is already stored.
	ErrExists = errors.New("store: stream already exists")
	// ErrCorrupt reports an unreadable segment or index: bad magic,
	// checksum mismatch, truncation, or impossible geometry. Corrupt
	// streams are never partially served.
	ErrCorrupt = errors.New("store: corrupt stream")
	// ErrQuota reports a write that would push a tenant over its byte
	// quota.
	ErrQuota = errors.New("store: tenant quota exceeded")
	// ErrClosed reports use of a closed store.
	ErrClosed = errors.New("store: closed")
)

// Config parameterizes a store.
type Config struct {
	// Dir is the store root; it is created if missing.
	Dir string
	// Shards is the number of shard directories (default 8, max 4096).
	Shards int
	// Quotas caps each tenant's total stored bytes (segments + indexes).
	// Absent or non-positive entries mean unlimited.
	Quotas map[string]int64
}

// DefaultShards is the shard-directory count used when Config.Shards
// is zero.
const DefaultShards = 8

// Store is a sharded, checksummed, quota-enforcing collection of
// compressed streams. All methods are safe for concurrent use.
type Store struct {
	dir    string
	shards int

	mu      sync.Mutex
	quotas  map[string]int64
	used    map[string]int64    // committed bytes per tenant
	open    map[string]*Segment // key → open segment handle
	deletes uint64              // Delete count; Get re-opens when it moves mid-open
	closed  bool

	// afterOpen, when non-nil, runs in Get between opening a segment
	// and registering its handle, so tests can interleave a Delete
	// exactly there.
	afterOpen func()
}

// Open opens (creating if necessary) a store rooted at cfg.Dir, scans
// the shard directories to rebuild per-tenant usage accounting, and
// removes leftover temp files from interrupted writes.
func Open(cfg Config) (*Store, error) {
	shards := cfg.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	if shards > 4096 {
		return nil, fmt.Errorf("store: shard count %d exceeds 4096", shards)
	}
	s := &Store{
		dir:    cfg.Dir,
		shards: shards,
		quotas: make(map[string]int64, len(cfg.Quotas)),
		used:   make(map[string]int64),
		open:   make(map[string]*Segment),
	}
	for t, q := range cfg.Quotas {
		s.quotas[t] = q
	}
	for i := 0; i < shards; i++ {
		if err := os.MkdirAll(s.shardDir(i), 0o755); err != nil {
			return nil, fmt.Errorf("store: creating shard dir: %w", err)
		}
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

// scan walks the shard directories rebuilding tenant usage and
// sweeping temp debris from interrupted writes. Orphan segments (no
// index — a crash between the two renames) are removed: they were
// never committed.
func (s *Store) scan() error {
	for i := 0; i < s.shards; i++ {
		dir := s.shardDir(i)
		entries, err := os.ReadDir(dir)
		if err != nil {
			return fmt.Errorf("store: scanning %s: %w", dir, err)
		}
		// First pass: collect names so orphan detection sees the full set.
		names := make(map[string]bool, len(entries))
		for _, e := range entries {
			names[e.Name()] = true
		}
		for _, e := range entries {
			name := e.Name()
			switch {
			case strings.HasSuffix(name, ".tmp"):
				if err := os.Remove(filepath.Join(dir, name)); err != nil {
					return fmt.Errorf("store: sweeping temp file: %w", err)
				}
			case strings.HasSuffix(name, segSuffix):
				base := strings.TrimSuffix(name, segSuffix)
				if !names[base+idxSuffix] {
					// Committed segments always have an index; this one's
					// write was interrupted before the index rename.
					if err := os.Remove(filepath.Join(dir, name)); err != nil {
						return fmt.Errorf("store: sweeping orphan segment: %w", err)
					}
					continue
				}
				tenant, _, ok := splitBase(base)
				if !ok {
					continue
				}
				info, err := e.Info()
				if err != nil {
					return fmt.Errorf("store: stat %s: %w", name, err)
				}
				s.used[tenant] += info.Size()
			case strings.HasSuffix(name, idxSuffix):
				base := strings.TrimSuffix(name, idxSuffix)
				tenant, _, ok := splitBase(base)
				if !ok || !names[base+segSuffix] {
					continue
				}
				info, err := e.Info()
				if err != nil {
					return fmt.Errorf("store: stat %s: %w", name, err)
				}
				s.used[tenant] += info.Size()
			}
		}
	}
	return nil
}

const (
	segSuffix = ".seg"
	idxSuffix = ".idx"
)

// ValidName reports whether s is usable as a tenant or stream id —
// the server validates request names up front with it so syntactically
// bad ids become 400s instead of store-level not-founds.
func ValidName(s string) bool { return validName(s) }

// validName reports whether a tenant or stream id is safe to embed in
// a filename: nonempty ASCII letters, digits, '-' and '_' only.
func validName(s string) bool {
	if s == "" || len(s) > 128 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

func key(tenant, id string) string { return tenant + "/" + id }

// splitBase recovers (tenant, id) from a "<tenant>.<id>" file base.
func splitBase(base string) (tenant, id string, ok bool) {
	tenant, id, ok = strings.Cut(base, ".")
	if !ok || !validName(tenant) || !validName(id) {
		return "", "", false
	}
	return tenant, id, true
}

func (s *Store) shardDir(i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("shard-%02x", i))
}

// shardOf maps a stream key onto its shard directory index.
func (s *Store) shardOf(k string) int {
	h := fnv.New32a()
	h.Write([]byte(k)) //lint:errdrop-ok hash.Hash.Write never fails
	return int(h.Sum32() % uint32(s.shards))
}

// paths returns the committed segment and index paths for a stream.
func (s *Store) paths(tenant, id string) (seg, idx string) {
	base := filepath.Join(s.shardDir(s.shardOf(key(tenant, id))), tenant+"."+id)
	return base + segSuffix, base + idxSuffix
}

func checkNames(tenant, id string) error {
	if !validName(tenant) {
		return fmt.Errorf("store: invalid tenant name %q: %w", tenant, ErrNotFound)
	}
	if !validName(id) {
		return fmt.Errorf("store: invalid stream id %q: %w", id, ErrNotFound)
	}
	return nil
}

// quota returns the byte quota for a tenant (0 = unlimited).
func (s *Store) quota(tenant string) int64 {
	q := s.quotas[tenant]
	if q < 0 {
		q = 0
	}
	return q
}

// Usage returns a tenant's committed bytes.
func (s *Store) Usage(tenant string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used[tenant]
}

// Quota returns a tenant's configured byte quota (0 = unlimited) —
// readiness probes compare it against Usage for headroom checks.
func (s *Store) Quota(tenant string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quota(tenant)
}

// Closed reports whether Close has been called.
func (s *Store) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Create starts writing a new stream for tenant under id. The returned
// SegmentWriter is an io.Writer for the compressed stream bytes; the
// stream becomes visible only after Commit. A tenant already at or
// over quota is rejected up front.
func (s *Store) Create(tenant, id string) (*SegmentWriter, error) {
	if err := checkNames(tenant, id); err != nil {
		return nil, err
	}
	segPath, idxPath := s.paths(tenant, id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if q := s.quota(tenant); q > 0 && s.used[tenant] >= q {
		return nil, fmt.Errorf("store: tenant %q at %d of %d bytes: %w", tenant, s.used[tenant], q, ErrQuota)
	}
	if _, err := os.Stat(idxPath); err == nil {
		return nil, fmt.Errorf("store: %s/%s: %w", tenant, id, ErrExists)
	}
	f, err := os.OpenFile(segPath+".tmp", os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if errors.Is(err, fs.ErrExist) {
			return nil, fmt.Errorf("store: %s/%s is being written: %w", tenant, id, ErrExists)
		}
		return nil, fmt.Errorf("store: creating segment: %w", err)
	}
	return &SegmentWriter{
		st:      s,
		tenant:  tenant,
		id:      id,
		f:       f,
		segPath: segPath,
		idxPath: idxPath,
	}, nil
}

// Get returns an open handle for a committed stream. Handles are
// cached: concurrent readers share one *Segment (its reads are
// concurrency-safe), and the handle stays valid until Delete or Close.
// Get never caches a handle whose open overlapped a Delete: once a
// Delete returns, later Gets serve only what is committed after it.
func (s *Store) Get(tenant, id string) (*Segment, error) {
	if err := checkNames(tenant, id); err != nil {
		return nil, err
	}
	k := key(tenant, id)
	segPath, idxPath := s.paths(tenant, id)
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, ErrClosed
		}
		if seg := s.open[k]; seg != nil {
			s.mu.Unlock()
			return seg, nil
		}
		deletes := s.deletes
		s.mu.Unlock()

		seg, err := openSegment(segPath, idxPath)
		if err != nil {
			return nil, err
		}
		if s.afterOpen != nil {
			s.afterOpen()
		}

		s.mu.Lock()
		prior, closed, moved := s.open[k], s.closed, s.deletes != deletes
		if !closed && prior == nil && !moved {
			s.open[k] = seg
			s.mu.Unlock()
			return seg, nil
		}
		s.mu.Unlock()
		// This handle never escapes: the store closed, another goroutine
		// won the open race (keep its handle), or a Delete ran while the
		// files were being opened. In the last case the handle may hold
		// the deleted stream's unlinked files, which that Delete could
		// not close because it never saw the handle, so open again.
		seg.close()
		switch {
		case closed:
			return nil, ErrClosed
		case prior != nil:
			return prior, nil
		}
	}
}

// Delete removes a committed stream and releases its quota bytes. The
// index is removed first so a crash mid-delete leaves an orphan
// segment (swept on next Open), never an index pointing at nothing.
func (s *Store) Delete(tenant, id string) error {
	if err := checkNames(tenant, id); err != nil {
		return err
	}
	segPath, idxPath := s.paths(tenant, id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	idxInfo, err := os.Stat(idxPath)
	if err != nil {
		return fmt.Errorf("store: %s/%s: %w", tenant, id, ErrNotFound)
	}
	segInfo, err := os.Stat(segPath)
	if err != nil {
		return fmt.Errorf("store: %s/%s: %w", tenant, id, ErrNotFound)
	}
	s.deletes++
	if seg := s.open[key(tenant, id)]; seg != nil {
		delete(s.open, key(tenant, id))
		seg.close() // the files are unlinked below regardless
	}
	if err := os.Remove(idxPath); err != nil {
		return fmt.Errorf("store: removing index: %w", err)
	}
	if err := os.Remove(segPath); err != nil {
		return fmt.Errorf("store: removing segment: %w", err)
	}
	s.used[tenant] -= idxInfo.Size() + segInfo.Size()
	if s.used[tenant] < 0 {
		s.used[tenant] = 0
	}
	return nil
}

// StreamStat describes one committed stream.
type StreamStat struct {
	Tenant string
	ID     string
	// SegmentBytes is the compressed stream size on disk.
	SegmentBytes int64
	// IndexBytes is the block index size on disk.
	IndexBytes int64
}

// List returns the committed streams for one tenant, sorted by id.
func (s *Store) List(tenant string) ([]StreamStat, error) {
	if !validName(tenant) {
		return nil, nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.mu.Unlock()
	var out []StreamStat
	prefix := tenant + "."
	for i := 0; i < s.shards; i++ {
		entries, err := os.ReadDir(s.shardDir(i))
		if err != nil {
			return nil, fmt.Errorf("store: listing: %w", err)
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, idxSuffix) {
				continue
			}
			base := strings.TrimSuffix(name, idxSuffix)
			_, id, ok := splitBase(base)
			if !ok {
				continue
			}
			idxInfo, err := e.Info()
			if err != nil {
				continue
			}
			segInfo, err := os.Stat(filepath.Join(s.shardDir(i), base+segSuffix))
			if err != nil {
				continue
			}
			out = append(out, StreamStat{
				Tenant:       tenant,
				ID:           id,
				SegmentBytes: segInfo.Size(),
				IndexBytes:   idxInfo.Size(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Close closes all open segment handles. Further calls on the store
// return ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	for k, seg := range s.open {
		if err := seg.close(); err != nil && firstErr == nil {
			firstErr = err
		}
		delete(s.open, k)
	}
	return firstErr
}

// commit finalizes a segment writer's files under the store lock:
// re-checks the quota against the final sizes, renames segment then
// index into place, and updates accounting.
func (s *Store) commit(w *SegmentWriter, idxBytes []byte) error {
	segSize := w.n
	idxSize := int64(len(idxBytes))
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if q := s.quota(w.tenant); q > 0 && s.used[w.tenant]+segSize+idxSize > q {
		return fmt.Errorf("store: tenant %q would use %d of %d bytes: %w",
			w.tenant, s.used[w.tenant]+segSize+idxSize, q, ErrQuota)
	}
	if err := writeFileSync(w.idxPath+".tmp", idxBytes); err != nil {
		return fmt.Errorf("store: writing index: %w", err)
	}
	if err := os.Rename(w.segPath+".tmp", w.segPath); err != nil {
		return fmt.Errorf("store: committing segment: %w", err)
	}
	if err := os.Rename(w.idxPath+".tmp", w.idxPath); err != nil {
		// Roll the segment back out so no index-less segment is served.
		os.Remove(w.segPath) //lint:errdrop-ok best-effort rollback; open sweeps orphans anyway
		return fmt.Errorf("store: committing index: %w", err)
	}
	s.used[w.tenant] += segSize + idxSize
	return nil
}

// writeFileSync writes data to path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close() //lint:errdrop-ok write already failed; the close error is secondary
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close() //lint:errdrop-ok sync already failed; the close error is secondary
		return err
	}
	return f.Close()
}

// SegmentWriter accumulates one stream's compressed bytes. Write it,
// then Commit to make the stream visible, or Abort to discard. It
// enforces the tenant quota incrementally so an over-quota upload
// fails while streaming, not after.
type SegmentWriter struct {
	st      *Store
	tenant  string
	id      string
	f       *os.File
	segPath string
	idxPath string
	n       int64
	err     error
	done    bool
	sp      *trace.Span // request span for Commit's child spans; may be nil
}

// SetTrace attaches the request span under which Commit records its
// store.commit / store.fsync / store.build_index child spans. Call it
// before Commit; a nil span (the default) disables the spans.
func (w *SegmentWriter) SetTrace(sp *trace.Span) { w.sp = sp }

// Write appends compressed stream bytes to the pending segment.
func (w *SegmentWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.done {
		return 0, fmt.Errorf("store: write after commit/abort")
	}
	if q := w.st.quota(w.tenant); q > 0 {
		w.st.mu.Lock()
		used := w.st.used[w.tenant]
		w.st.mu.Unlock()
		if used+w.n+int64(len(p)) > q {
			w.err = fmt.Errorf("store: tenant %q upload exceeds %d-byte quota: %w", w.tenant, q, ErrQuota)
			return 0, w.err
		}
	}
	n, err := w.f.Write(p)
	w.n += int64(n)
	if err != nil {
		w.err = fmt.Errorf("store: writing segment: %w", err)
		return n, w.err
	}
	return n, nil
}

// Commit validates the written stream, builds its block index, and
// atomically publishes both files. On any failure the temp files are
// removed and the stream is not visible.
func (w *SegmentWriter) Commit() (err error) {
	if w.done {
		return fmt.Errorf("store: double commit")
	}
	csp := w.sp.StartChild("store.commit")
	defer func() {
		if err != nil {
			csp.SetError(err)
			w.Abort()
		}
		csp.End()
	}()
	if w.err != nil {
		return w.err
	}
	w.done = true
	fsp := csp.StartChild("store.fsync")
	err = w.f.Sync()
	fsp.End()
	if err != nil {
		w.done = false
		return fmt.Errorf("store: syncing segment: %w", err)
	}
	if err := w.f.Close(); err != nil {
		w.done = false
		return fmt.Errorf("store: closing segment: %w", err)
	}
	// Re-read what landed on disk: the index must describe the durable
	// bytes, not the bytes we think we wrote.
	segBytes, err := os.ReadFile(w.segPath + ".tmp")
	if err != nil {
		w.done = false
		return fmt.Errorf("store: rereading segment: %w", err)
	}
	bsp := csp.StartChild("store.build_index")
	idxBytes, err := buildIndex(segBytes)
	bsp.End()
	if err != nil {
		w.done = false
		return err
	}
	if err := w.st.commit(w, idxBytes); err != nil {
		w.done = false
		return err
	}
	return nil
}

// Bytes returns the number of segment bytes written so far.
func (w *SegmentWriter) Bytes() int64 { return w.n }

// Abort discards the pending stream. Safe to call after a failed
// Commit; idempotent.
func (w *SegmentWriter) Abort() {
	if w.done {
		return
	}
	w.done = true
	w.f.Close()                   //lint:errdrop-ok the file is being discarded
	os.Remove(w.segPath + ".tmp") //lint:errdrop-ok best effort: open sweeps leftover temps
	os.Remove(w.idxPath + ".tmp") //lint:errdrop-ok best effort: open sweeps leftover temps
}
