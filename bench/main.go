// Command pastribench is the repository's benchmark. One command
// measures the PaSTRI codec in process and the pastrid daemon over
// loopback HTTP, checks every output against a serial oracle, and
// prints every metric by name and unit.
//
// Run it from the repository root through its wrapper, which builds it
// and keeps every build product under .bench_build/:
//
//	bash bench/run.sh -workload read_cold -seed 7            # end-to-end metrics
//	bash bench/run.sh -workload read_cold -seed 7 -trace 1   # per-layer metrics and a Perfetto trace
//	bash bench/run.sh -repeat 10 -out base.json              # every workload, seeds 1..10
//	bash bench/run.sh -compare base.json change.json         # regressed / unresolved per metric
//
// See bench/README.md for the workloads, the metrics and their bounds.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout)) //lint:nopanic-ok command entry point; the exit code is the run's verdict
}

// workloadFuncs maps each workload BENCHMARK.json names to the function
// that runs it.
var workloadFuncs = map[string]func(*runCtx) error{
	"codec":        runCodec,
	"read_hot":     runService,
	"read_cold":    runService,
	"ingest_mixed": runService,
}

// options are the command's flags.
type options struct {
	root     string
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	repeat   int
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("pastribench", flag.ContinueOnError)
	var o options
	var traceFlag int
	var compare string
	fs.StringVar(&o.root, "root", "", "repository root (default: the nearest parent directory holding go.mod and cmd/pastrid)")
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: every workload, each in its own process)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for inputs, access order and arrival times")
	fs.Float64Var(&o.seconds, "seconds", 0, "measured seconds per run (default: BENCHMARK.json run_seconds)")
	fs.IntVar(&traceFlag, "trace", 0, "1 for the traced run: per-layer metrics and a Perfetto trace instead of end-to-end metrics")
	fs.StringVar(&o.out, "out", "", "result file (default: .bench_build/results/...)")
	fs.IntVar(&o.repeat, "repeat", 1, "runs per workload, with seeds seed, seed+1, ..., each in its own process")
	fs.StringVar(&compare, "compare", "", "with a second file argument: compare two -repeat result sets")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "pastribench: -trace takes 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	root, err := findRoot(o.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pastribench:", err)
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pastribench:", err)
		return 2
	}
	if compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "pastribench: -compare takes two result sets: -compare a.json b.json")
			return 2
		}
		return compareSets(spec, compare, fs.Arg(0), stdout)
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	workloads := spec.workloadNames()
	if o.workload != "" {
		if !slices.Contains(workloads, o.workload) {
			fmt.Fprintf(os.Stderr, "pastribench: unknown workload %q (BENCHMARK.json has %v)\n", o.workload, workloads)
			return 2
		}
		workloads = []string{o.workload}
	}
	if len(workloads) > 1 || o.repeat > 1 {
		return runSet(spec, root, o, workloads, stdout)
	}
	bin, err := buildPastrid(root, filepath.Join(root, ".bench_build", "bin"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "pastribench:", err)
		return 1
	}
	res, err := runOne(spec, root, bin, o, fullSizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pastribench:", err)
		return 1
	}
	printResult(stdout, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// watchdog bounds a run: past it, the daemon is killed and the command
// exits nonzero rather than hang.
const watchdog = 170 * time.Second

// runOne runs one workload in this process and writes its result file.
func runOne(spec *benchSpec, root, bin string, o options, sz sizes) (*result, error) {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	timer := time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "pastribench: %s run exceeded %v; stopping\n", o.workload, watchdog)
		cancel()
		time.Sleep(3 * time.Second) // let the killed daemon be reaped
		os.Exit(3)                  //lint:nopanic-ok watchdog of a command; the run is abandoned
	})
	defer timer.Stop()

	out := o.out
	if out == "" {
		name := fmt.Sprintf("%s-s%d", o.workload, o.seed)
		if o.trace {
			name += "-trace"
		}
		out = filepath.Join(root, ".bench_build", "results", name+".json")
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return nil, err
	}
	dir := filepath.Join(root, ".bench_build", "run", fmt.Sprintf("%s-s%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir) //lint:errdrop-ok run-directory cleanup; a leftover directory holds no results
	// Only ingest_mixed writes to the store while it is measured.
	diskDir := ""
	if o.workload == "ingest_mixed" {
		diskDir = dir
	}
	speed, err := newHostSpeed(o.workload != "codec", diskDir)
	if err != nil {
		return nil, err
	}
	defer speed.close()
	dur := time.Duration(o.seconds * float64(time.Second))
	rc := &runCtx{
		ctx:      ctx,
		root:     root,
		bin:      bin,
		dir:      dir,
		workload: o.workload,
		seed:     o.seed,
		dur:      dur,
		trace:    o.trace,
		sz:       sz,
		perfetto: out[:len(out)-len(filepath.Ext(out))] + ".trace.json",
		prov:     newProvenance(root, o.seed, dur, o.workload != "codec"),
		measured: make(map[string]metric),
		speed:    speed,
	}
	if err := workloadFuncs[o.workload](rc); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%s: interrupted", o.workload)
	}
	res, err := rc.result(spec)
	if err != nil {
		return nil, err
	}
	return res, writeJSON(out, res)
}

// printResult prints every measured value, then, as the last line, the
// run's verdict and the metrics BENCHMARK.json lists for the mode.
func printResult(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Measured))
	for n := range res.Measured {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		m := res.Measured[n]
		fmt.Fprintf(w, "%-13s %-38s %14.6g %-9s n=%d\n", res.Workload, n, m.Value, m.Unit, m.N)
	}
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]valueUnit, len(res.Metrics))}
	for n, m := range res.Metrics {
		last.Metrics[n] = valueUnit{m.Value, m.Unit}
	}
	raw, _ := json.Marshal(last) //lint:errdrop-ok plain structs of finite floats always marshal
	fmt.Fprintf(w, "%s\n", raw)
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string                     `json:"command"`
	Paths      []string                     `json:"paths"`
	RunSeconds int                          `json:"run_seconds"`
	Workloads  []struct{ Name, Why string } `json:"workloads"`
	EndToEnd   []metricSpec                 `json:"end_to_end"`
	PerLayer   []metricSpec                 `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func (s *benchSpec) workloadNames() []string {
	var out []string
	for _, w := range s.Workloads {
		out = append(out, w.Name)
	}
	return out
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, w := range s.Workloads {
		if workloadFuncs[w.Name] == nil {
			return nil, fmt.Errorf("BENCHMARK.json names workload %q, which this benchmark does not implement", w.Name)
		}
	}
	return &s, nil
}

// findRoot returns the repository root: flagRoot when given, else the
// nearest directory at or above the working directory that holds
// go.mod and cmd/pastrid.
func findRoot(flagRoot string) (string, error) {
	isRoot := func(dir string) bool {
		_, e1 := os.Stat(filepath.Join(dir, "go.mod"))
		_, e2 := os.Stat(filepath.Join(dir, "cmd", "pastrid"))
		return e1 == nil && e2 == nil
	}
	if flagRoot != "" {
		abs, err := filepath.Abs(flagRoot)
		if err != nil {
			return "", err
		}
		if !isRoot(abs) {
			return "", fmt.Errorf("%s holds no go.mod and cmd/pastrid; the benchmark needs the repository's sources", abs)
		}
		return abs, nil
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isRoot(dir) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (go.mod and cmd/pastrid) at or above the working directory")
		}
		dir = parent
	}
}

// buildPastrid builds the daemon from root's sources into dir.
func buildPastrid(root, dir string) (string, error) {
	bin := filepath.Join(dir, "pastrid")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pastrid")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building pastrid: %w", err)
	}
	return bin, nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// childArgs are the flags that rerun one (workload, seed) of a set in a
// process of its own, so no run inherits another's heap or caches.
func childArgs(root string, o options, workload string, seed uint64, out string) []string {
	return []string{
		"-root", root, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[o.trace], "-out", out,
	}
}
