package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/eri"
)

// sizes fixes every input size and rate of the workloads. fullSizes is
// the benchmark; the smoke test shrinks it.
type sizes struct {
	molecules          []string // datasets are these molecules' ERI blocks
	ddBlocks, ffBlocks int      // per molecule: codec corpus; ddBlocks is also the service pool
	ddStream, ffStream int      // codec blocks per stream

	hotStreams, hotBlocks   int // read_hot set: well inside the 64 MiB cache
	coldStreams, coldBlocks int // read_cold set: 4x the cache
	uploadBlocks, deleteLag int // ingest_mixed uploads, and how far behind deletes trail

	readRate  float64 // read_hot and read_cold open-loop offered reads/s
	mixedRate float64 // ingest_mixed reader's offered reads/s

	setupRepeats int           // set-ups per run; setup_s is their median
	offsetHot    time.Duration // measured phases start this long after daemon start
	offsetCold   time.Duration

	traceWindow   time.Duration // traced run: open-loop traffic between /debug/traces fetches
	overheadPairs int           // collector-overhead compressions per side
}

var fullSizes = sizes{
	molecules:     []string{"alanine", "benzene"},
	ddBlocks:      1500,
	ffBlocks:      200,
	ddStream:      300,
	ffStream:      40,
	hotStreams:    8,
	hotBlocks:     64,
	coldStreams:   200,
	coldBlocks:    128,
	uploadBlocks:  64,
	deleteLag:     32,
	readRate:      7000,
	mixedRate:     500,
	setupRepeats:  5,
	offsetHot:     500 * time.Millisecond,
	offsetCold:    3500 * time.Millisecond,
	traceWindow:   300 * time.Millisecond,
	overheadPairs: 15,
}

// Stream kinds for runCtx.rng: each use of randomness draws from its
// own seeded stream, so changing one phase never shifts another's.
const (
	rngStreams = iota + 1
	rngSchedule
	rngWarm
	rngIDs
	rngClosed
	rngUpload
	rngOverhead
)

// runCtx is one run of one workload.
type runCtx struct {
	ctx      context.Context // done on SIGINT, SIGTERM or the watchdog: the daemon is killed and the load loops stop
	root     string          // repository root
	bin      string          // pastrid binary
	dir      string          // this run's working directory: config, log, stores
	workload string
	seed     uint64
	dur      time.Duration // measured time
	trace    bool
	sz       sizes
	perfetto string // traced run: where the Perfetto trace goes

	tally tally
	prov  provenance
	speed *hostSpeed

	mu       sync.Mutex
	measured map[string]metric
	phases   []phase
}

// rng returns the seeded random stream (kind, n).
func (rc *runCtx) rng(kind, n int) *rand.Rand {
	return rand.New(rand.NewPCG(rc.seed, uint64(kind)<<32|uint64(n)))
}

// set records a measured value; n is the sample count behind it.
func (rc *runCtx) set(name string, v float64, unit string, n int) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.measured[name] = metric{Value: v, Unit: unit, N: n}
}

// phase records a finished phase.
func (rc *runCtx) phase(name string, start time.Time, ops int, rate float64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.phases = append(rc.phases, phase{Name: name, Seconds: time.Since(start).Seconds(), Ops: ops, OfferedRate: rate})
}

func (rc *runCtx) noteDatasets(use string, sets []*eri.Dataset) {
	for _, ds := range sets {
		rc.prov.Datasets = append(rc.prov.Datasets, datasetInfo{Use: use, Name: ds.Name, Blocks: ds.Blocks, Bytes: int64(ds.SizeBytes())})
	}
}

func (rc *runCtx) writePerfetto(lg *ledger) error {
	f, err := os.Create(rc.perfetto)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := lg.writePerfetto(w); err != nil {
		f.Close() //lint:errdrop-ok already failing; the write error wins
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close() //lint:errdrop-ok already failing; the flush error wins
		return err
	}
	return f.Close()
}

// tally counts operations and correctness failures.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	first             string
}

func (t *tally) ok() { t.attempted.Add(1) }

// fail counts a failed operation; the first one is printed at once.
func (t *tally) fail(msg string) {
	t.attempted.Add(1)
	if t.failed.Add(1) == 1 {
		t.mu.Lock()
		t.first = msg
		t.mu.Unlock()
		fmt.Fprintln(os.Stderr, "pastribench: first failure:", msg)
	}
}

func (t *tally) firstError() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.first
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind the value
}

// phase is one timed part of a run.
type phase struct {
	Name        string  `json:"name"`
	Seconds     float64 `json:"seconds"`
	Ops         int     `json:"ops"`
	OfferedRate float64 `json:"offered_rate,omitempty"`
}

// result is the full record of one run, written to the -out file.
type result struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Trace      bool              `json:"trace"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	FirstError string            `json:"first_error,omitempty"`
	Metrics    map[string]metric `json:"metrics"`  // BENCHMARK.json's end_to_end, or per_layer when traced
	Measured   map[string]metric `json:"measured"` // everything the run measured
	Phases     []phase           `json:"phases"`
	Provenance provenance        `json:"provenance"`
}

// result assembles the run's record. Metrics holds exactly the metrics
// BENCHMARK.json lists for the mode; a per-layer metric of a layer the
// workload does not pass through is 0 (its n is 0).
func (rc *runCtx) result(spec *benchSpec) (*result, error) {
	attempted, failed := rc.tally.attempted.Load(), rc.tally.failed.Load()
	rate := 0.0
	if attempted > 0 {
		rate = float64(failed) / float64(attempted)
	}
	rc.set("error_rate", rate, "share", int(attempted))
	if !rc.trace {
		if err := rc.reportHost(); err != nil {
			return nil, err
		}
	}
	want := spec.EndToEnd
	if rc.trace {
		want = spec.PerLayer
	}
	metrics := make(map[string]metric, len(want))
	for _, m := range want {
		got, ok := rc.measured[m.Name]
		switch {
		case ok && got.Unit != m.Unit:
			return nil, fmt.Errorf("%s: measured in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
		case ok:
			metrics[m.Name] = got
		case rc.trace:
			metrics[m.Name] = metric{Unit: m.Unit}
		default:
			return nil, fmt.Errorf("workload %s did not measure %s", rc.workload, m.Name)
		}
	}
	return &result{
		Workload:   rc.workload,
		Seed:       rc.seed,
		Trace:      rc.trace,
		Correct:    failed == 0 && attempted > 0,
		Attempted:  attempted,
		Failed:     failed,
		FirstError: rc.tally.firstError(),
		Metrics:    metrics,
		Measured:   rc.measured,
		Phases:     rc.phases,
		Provenance: rc.prov,
	}, nil
}

// setScaled records a gated timing at nominal host speed under name, and
// as measured under name.unscaled.
func (rc *runCtx) setScaled(name string, nominal, raw float64, unit string, n int) {
	rc.set(name, nominal, unit, n)
	rc.set(name+".unscaled", raw, unit, n)
}

// setSetup records setup_s, the median of the set-ups.
func (rc *runCtx) setSetup(setups scaled) {
	rc.setScaled("setup_s", setups.nominal.ms(0.5)/1e3, setups.raw.ms(0.5)/1e3, "s", len(setups.raw))
}

// setRate records throughput_mbps: bytes over the summed time of ops.
func (rc *runCtx) setRate(bytes int64, ops scaled) {
	mbps := func(s samples) float64 { return float64(bytes) / 1e6 / s.total().Seconds() }
	rc.setScaled("throughput_mbps", mbps(ops.nominal), mbps(ops.raw), "MB/s", len(ops.raw))
}

// setLatencies records latency_p50_ms and the windowed latency_p99_ms of
// ops.
func (rc *runCtx) setLatencies(ops scaled) {
	rc.setScaled("latency_p50_ms", ops.nominal.ms(0.50), ops.raw.ms(0.50), "ms", len(ops.raw))
	rc.setScaled("latency_p99_ms", ops.nominal.windowedP99ms(), ops.raw.windowedP99ms(), "ms", len(ops.raw))
}

// reportHost records the host-speed reference's times and fails the run
// if a part of the reference failed.
func (rc *runCtx) reportHost() error {
	slow, err := rc.speed.slowdown()
	if err != nil {
		return err
	}
	rc.set("host.reference_us", rc.speed.times.us(0.5), "us", len(rc.speed.times))
	rc.set("host.slowdown", slow, "x", len(rc.speed.times))
	if len(rc.speed.net) > 0 {
		rc.set("host.loopback_us", rc.speed.net.us(0.5), "us", len(rc.speed.net))
	}
	if len(rc.speed.disk) > 0 {
		rc.set("host.commits_us", rc.speed.disk.us(0.5), "us", len(rc.speed.disk))
	}
	return nil
}

// provenance records what a result was measured on and with.
type provenance struct {
	Commit       string            `json:"commit,omitempty"`
	SourceDigest string            `json:"source_digest"`
	GoVersion    string            `json:"go_version"`
	NumCPU       int               `json:"nproc"`
	GOMAXPROCS   int               `json:"gomaxprocs"`
	CPUModel     string            `json:"cpu_model"`
	Caches       map[string]string `json:"caches"`
	StoreFS      string            `json:"store_fs,omitempty"`
	FlushPolicy  string            `json:"flush_policy,omitempty"`
	Seed         uint64            `json:"seed"`
	Seconds      float64           `json:"seconds"`
	Datasets     []datasetInfo     `json:"datasets"`
	Blocks       int               `json:"blocks"`
	BlockBytes   int               `json:"block_bytes,omitempty"`
}

type datasetInfo struct {
	Use    string `json:"use"`
	Name   string `json:"name"`
	Blocks int    `json:"blocks"`
	Bytes  int64  `json:"bytes"`
}

// flushPolicy is pastrid's own durability policy, which the benchmark
// leaves as users run it.
const flushPolicy = "pastrid default: each upload commit fsyncs its segment file and its index file; no directory fsync"

func newProvenance(root string, seed uint64, dur time.Duration, service bool) provenance {
	p := provenance{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Caches:     cpuCaches(),
		Seed:       seed,
		Seconds:    dur.Seconds(),
	}
	if service {
		p.FlushPolicy = flushPolicy
	}
	// The ceiling keeps git from reporting the commit of some repository
	// that merely contains a checkout without history of its own.
	git := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	if out, err := git.Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	p.SourceDigest = sourceDigest(root)
	return p
}

// sourceDigest hashes the repository's Go sources and module files, so
// results from checkouts without git history can still be matched to
// the code they measured.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error { //lint:errdrop-ok unreadable entries are skipped; the digest covers what can be read
		if err != nil {
			return nil
		}
		if e.IsDir() {
			if path != root && strings.HasPrefix(e.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && e.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close() //lint:errdrop-ok read-only file
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00") //lint:errdrop-ok hash writes never fail
		io.Copy(h, f)                 //lint:errdrop-ok a short read changes the digest, which is all it is for
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuCaches reads cpu0's cache sizes from sysfs, e.g. {"L2": "2048K"}.
func cpuCaches() map[string]string {
	out := make(map[string]string)
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	slices.Sort(dirs)
	read := func(dir, name string) string {
		raw, _ := os.ReadFile(filepath.Join(dir, name)) //lint:errdrop-ok a missing sysfs entry is reported as an empty size
		return strings.TrimSpace(string(raw))
	}
	for _, d := range dirs {
		name := "L" + read(d, "level")
		switch read(d, "type") {
		case "Data":
			name += "d"
		case "Instruction":
			name += "i"
		}
		out[name] = read(d, "size")
	}
	return out
}

// fsType names the filesystem holding path.
func fsType(path string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "", fmt.Errorf("statfs %s: %w", path, err)
	}
	names := map[int64]string{
		0xef53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x9123683e: "btrfs",
		0x58465342: "xfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n, nil
	}
	return fmt.Sprintf("0x%x", st.Type), nil
}
