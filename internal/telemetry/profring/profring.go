// Package profring is a bounded on-disk ring of pprof profiles —
// pastrid's continuous-profiling store. A sampler captures periodic
// CPU and heap profiles, and the server force-captures a CPU profile
// when an SLO objective enters fast burn, tagging each capture with
// the reason, the tenant that triggered it, and the most recent
// retained trace ID so a profile can be joined back to a trace.
//
// The ring is disk-bounded, not time-bounded: at most MaxProfiles
// profile files are kept and the oldest are pruned on each capture, so
// a daemon can profile forever in a fixed footprint. Each profile is
// the runtime's gzip'd-protobuf output in a `{seq}-{kind}-{reason}.pb.gz`
// file with a small JSON sidecar holding the attribution metadata —
// `go tool pprof` reads the profile directly, and pastrid-report reads
// the sidecars.
//
// Only one CPU profile may run per process (a runtime/pprof
// limitation), so CPU captures are guarded by a process-wide busy
// flag: a capture requested while one is running is counted as
// skipped, never queued — by the time the running capture ends the
// moment it was meant to observe is gone.
package profring

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Capture kinds.
const (
	KindCPU  = "cpu"
	KindHeap = "heap"
)

// Well-known capture reasons (free-form strings; these are the ones
// pastrid emits).
const (
	ReasonPeriodic = "periodic"
	ReasonSLOBurn  = "slo_burn"
	ReasonForced   = "forced"
)

// ErrBusy reports that a CPU capture was skipped because another one
// was already running.
var ErrBusy = errors.New("profring: cpu profile already running")

// cpuBusy is process-wide: runtime/pprof allows one CPU profile per
// process regardless of how many rings exist.
var cpuBusy atomic.Bool

// Config sizes a ring. Zero values take defaults; an empty Dir
// disables profiling entirely (Open returns a nil ring, whose methods
// all no-op).
type Config struct {
	Dir         string
	MaxProfiles int           // default 64
	CPUDuration time.Duration // default 1s per CPU capture
	Period      time.Duration // default 60s between periodic captures
}

func (c Config) withDefaults() Config {
	if c.MaxProfiles <= 0 {
		c.MaxProfiles = 64
	}
	if c.CPUDuration <= 0 {
		c.CPUDuration = time.Second
	}
	if c.Period <= 0 {
		c.Period = time.Minute
	}
	return c
}

// Entry describes one captured profile: the file pair on disk plus the
// attribution recorded at capture time.
type Entry struct {
	Seq       uint64 `json:"seq"`
	Kind      string `json:"kind"`
	Reason    string `json:"reason"`
	Tenant    string `json:"tenant,omitempty"`
	TraceID   string `json:"trace_id,omitempty"`
	UnixNano  int64  `json:"unix_nano"`
	SizeBytes int64  `json:"size_bytes"`
	Path      string `json:"path"`
	HeapAlloc uint64 `json:"heap_alloc_bytes,omitempty"`
}

// Stats counts ring activity for /metrics.
type Stats struct {
	Captures uint64
	Skipped  uint64
	Pruned   uint64
	Entries  int
	Bytes    int64
}

// Ring is the on-disk profile ring. The nil *Ring is a valid disabled
// ring. Methods are safe for concurrent use.
type Ring struct {
	cfg Config

	mu       sync.Mutex
	entries  []Entry // sorted by Seq ascending
	seq      uint64
	lastTick time.Time

	captures atomic.Uint64
	skipped  atomic.Uint64
	pruned   atomic.Uint64
}

// Open creates (or reopens) a ring at cfg.Dir, adopting profiles left
// by a previous run so pruning stays bounded across restarts. An
// empty Dir returns (nil, nil): profiling disabled.
func Open(cfg Config) (*Ring, error) {
	if cfg.Dir == "" {
		return nil, nil
	}
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("profring: %w", err)
	}
	r := &Ring{cfg: cfg}

	metas, err := filepath.Glob(filepath.Join(cfg.Dir, "*.meta.json"))
	if err != nil {
		return nil, fmt.Errorf("profring: %w", err)
	}
	for _, m := range metas {
		data, err := os.ReadFile(m)
		if err != nil {
			continue
		}
		var e Entry
		if json.Unmarshal(data, &e) != nil || e.Path == "" {
			continue
		}
		if _, err := os.Stat(e.Path); err != nil {
			os.Remove(m) //lint:errdrop-ok orphaned sidecar; removal is best-effort
			continue
		}
		r.entries = append(r.entries, e)
		if e.Seq >= r.seq {
			r.seq = e.Seq + 1
		}
	}
	sort.Slice(r.entries, func(i, j int) bool { return r.entries[i].Seq < r.entries[j].Seq })
	r.pruneLocked()
	return r, nil
}

// Dir returns the ring directory ("" for a disabled ring).
func (r *Ring) Dir() string {
	if r == nil {
		return ""
	}
	return r.cfg.Dir
}

// CaptureCPU records a CPU profile of CPUDuration, blocking for that
// long — callers on request paths should invoke it from a goroutine.
// Returns ErrBusy (and counts a skip) when a CPU profile is already
// running anywhere in the process.
func (r *Ring) CaptureCPU(reason, tenant, traceID string) (Entry, error) {
	if r == nil {
		return Entry{}, nil
	}
	if !cpuBusy.CompareAndSwap(false, true) {
		r.skipped.Add(1)
		return Entry{}, ErrBusy
	}
	defer cpuBusy.Store(false)

	e, f, err := r.begin(KindCPU, reason, tenant, traceID)
	if err != nil {
		return Entry{}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()         //lint:errdrop-ok capture failed; close is cleanup
		os.Remove(e.Path) //lint:errdrop-ok capture failed; unlink is cleanup
		r.skipped.Add(1)
		return Entry{}, fmt.Errorf("profring: %w", err)
	}
	time.Sleep(r.cfg.CPUDuration)
	pprof.StopCPUProfile()
	return r.commit(e, f)
}

// CaptureHeap records a heap profile (gzip'd protobuf, like the CPU
// kind). Fast: no sampling window.
func (r *Ring) CaptureHeap(reason, tenant, traceID string) (Entry, error) {
	if r == nil {
		return Entry{}, nil
	}
	e, f, err := r.begin(KindHeap, reason, tenant, traceID)
	if err != nil {
		return Entry{}, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.HeapAlloc = ms.HeapAlloc
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		f.Close()         //lint:errdrop-ok capture failed; close is cleanup
		os.Remove(e.Path) //lint:errdrop-ok capture failed; unlink is cleanup
		return Entry{}, fmt.Errorf("profring: %w", err)
	}
	return r.commit(e, f)
}

// Tick drives periodic capture: when a full Period has elapsed since
// the last periodic capture it records a heap profile inline and a CPU
// profile in the background. The sampler calls this once per sample
// interval.
func (r *Ring) Tick(now time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	due := r.lastTick.IsZero() || now.Sub(r.lastTick) >= r.cfg.Period
	if due {
		r.lastTick = now
	}
	r.mu.Unlock()
	if !due {
		return
	}
	r.CaptureHeap(ReasonPeriodic, "", "")   // periodic capture is best-effort by design
	go r.CaptureCPU(ReasonPeriodic, "", "") // periodic capture is best-effort by design
}

// Entries returns the retained entries, oldest first.
func (r *Ring) Entries() []Entry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Entry(nil), r.entries...)
}

// Stats returns ring counters.
func (r *Ring) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	var bytes int64
	for _, e := range r.entries {
		bytes += e.SizeBytes
	}
	n := len(r.entries)
	r.mu.Unlock()
	return Stats{
		Captures: r.captures.Load(),
		Skipped:  r.skipped.Load(),
		Pruned:   r.pruned.Load(),
		Entries:  n,
		Bytes:    bytes,
	}
}

// begin allocates a sequence number and opens the profile file.
func (r *Ring) begin(kind, reason, tenant, traceID string) (Entry, *os.File, error) {
	r.mu.Lock()
	seq := r.seq
	r.seq++
	r.mu.Unlock()

	name := fmt.Sprintf("%06d-%s-%s.pb.gz", seq, kind, sanitize(reason))
	e := Entry{
		Seq:      seq,
		Kind:     kind,
		Reason:   reason,
		Tenant:   tenant,
		TraceID:  traceID,
		UnixNano: time.Now().UnixNano(),
		Path:     filepath.Join(r.cfg.Dir, name),
	}
	f, err := os.Create(e.Path)
	if err != nil {
		return Entry{}, nil, fmt.Errorf("profring: %w", err)
	}
	return e, f, nil
}

// commit closes the profile file, writes the metadata sidecar, and
// admits the entry into the ring (pruning the oldest beyond the cap).
func (r *Ring) commit(e Entry, f *os.File) (Entry, error) {
	if err := f.Close(); err != nil {
		return Entry{}, fmt.Errorf("profring: %w", err)
	}
	if fi, err := os.Stat(e.Path); err == nil {
		e.SizeBytes = fi.Size()
	}
	meta, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return Entry{}, fmt.Errorf("profring: %w", err)
	}
	if err := os.WriteFile(metaPath(e.Path), meta, 0o644); err != nil {
		return Entry{}, fmt.Errorf("profring: %w", err)
	}

	r.mu.Lock()
	r.entries = append(r.entries, e)
	sort.Slice(r.entries, func(i, j int) bool { return r.entries[i].Seq < r.entries[j].Seq })
	r.pruneLocked()
	r.mu.Unlock()
	r.captures.Add(1)
	return e, nil
}

func (r *Ring) pruneLocked() {
	for len(r.entries) > r.cfg.MaxProfiles {
		old := r.entries[0]
		r.entries = r.entries[1:]
		os.Remove(old.Path)           //lint:errdrop-ok prune is best-effort; Open re-adopts leftovers
		os.Remove(metaPath(old.Path)) //lint:errdrop-ok prune is best-effort; Open re-adopts leftovers
		r.pruned.Add(1)
	}
}

func metaPath(profilePath string) string {
	return strings.TrimSuffix(profilePath, ".pb.gz") + ".meta.json"
}

// sanitize keeps reasons filename-safe.
func sanitize(s string) string {
	if s == "" {
		return "none"
	}
	var sb strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_', c == '-':
			sb.WriteRune(c)
		case c >= 'A' && c <= 'Z':
			sb.WriteRune(c + ('a' - 'A'))
		default:
			sb.WriteByte('_')
		}
	}
	if sb.Len() == 0 {
		return "none"
	}
	return sb.String()
}

// ParseSeq extracts the sequence number from a profile filename —
// handy for tests and tooling that list the directory directly.
func ParseSeq(filename string) (uint64, bool) {
	base := filepath.Base(filename)
	i := strings.IndexByte(base, '-')
	if i <= 0 {
		return 0, false
	}
	n, err := strconv.ParseUint(base[:i], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}
