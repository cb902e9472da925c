// Command pastri compresses and decompresses files of float64 ERI
// blocks with the PaSTRI algorithm.
//
// Usage:
//
//	pastri -c -numsb 36 -sbsize 36 -eb 1e-10 -in blocks.f64 -out blocks.pstr
//	pastri -d -in blocks.pstr -out blocks.f64
//	pastri -info -in blocks.pstr
//
// Input for -c is raw little-endian float64 data containing a whole
// number of blocks (numsb × sbsize values each), e.g. a dump produced
// by the erigen tool.
//
// Observability (see the "Observability" section of README.md):
//
//	-stats           print a per-stage/per-encoding summary after the run
//	-statsjson PATH  write the full telemetry snapshot as JSON ("-" = stdout)
//	-trace           print the per-block trace ring (most recent blocks)
//	-pprof ADDR      serve net/http/pprof, expvar and Prometheus text
//	                 format (/debug/pprof, /debug/vars with the live
//	                 "pastri" snapshot, /metrics) during the run,
//	                 e.g. -pprof localhost:6060
//	-metricsout PATH write a final Prometheus text-format scrape to PATH
//	-log MODE        structured logs to stderr: text, json, or off
//	-loglevel LEVEL  log level: debug (per-block records), info, warn, error
//	-audit           re-decode every block and verify the absolute error
//	                 bound (compression audits its own output; -d needs
//	                 -auditorig with the original raw file); violations
//	                 count into telemetry and fail the run
//	-flight DIR      attach the quality flight recorder; anomaly
//	                 artifacts (JSON, replayable via zcheck -flight) are
//	                 written under DIR
//	-flightslack EB  flight-recorder slack floor: blocks whose eb slack
//	                 falls below this trip an eb_violation anomaly
//	                 (default 0 = genuine violations only)
package main

import (
	"encoding/binary"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"text/tabwriter"

	pastri "repro"
	"repro/internal/zcheck"
)

func main() {
	var (
		compress   = flag.Bool("c", false, "compress")
		decompress = flag.Bool("d", false, "decompress")
		info       = flag.Bool("info", false, "describe a compressed stream")
		numSB      = flag.Int("numsb", 36, "sub-blocks per block (Na*Nb)")
		sbSize     = flag.Int("sbsize", 36, "points per sub-block (Nc*Nd)")
		eb         = flag.Float64("eb", 1e-10, "absolute error bound")
		metric     = flag.String("metric", "ER", "scaling metric: ER|FR|AR|AAR|IS")
		inPath     = flag.String("in", "", "input file")
		outPath    = flag.String("out", "", "output file")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel workers (0 = all cores)")
		stats      = flag.Bool("stats", false, "print per-stage/per-encoding telemetry after the run")
		statsJSON  = flag.String("statsjson", "", "write telemetry snapshot JSON to this path (\"-\" = stdout)")
		trace      = flag.Bool("trace", false, "print the per-block trace ring after the run")
		pprofAddr  = flag.String("pprof", "", "serve /debug/pprof, /debug/vars and /metrics on this address during the run")
		metricsOut = flag.String("metricsout", "", "write a final Prometheus text-format scrape to this path (\"-\" = stdout)")
		logMode    = flag.String("log", "off", "structured logging to stderr: text|json|off")
		logLevel   = flag.String("loglevel", "info", "log level: debug|info|warn|error")
		audit      = flag.Bool("audit", false, "re-decode every block and verify the absolute error bound")
		auditOrig  = flag.String("auditorig", "", "original raw float64 file for -d -audit")
		flightDir  = flag.String("flight", "", "write flight-recorder anomaly artifacts under this directory")
		flightEB   = flag.Float64("flightslack", 0, "flight-recorder eb-slack floor (0 = genuine violations only)")
	)
	flag.Parse()
	o := cliOpts{
		compress: *compress, decompress: *decompress, info: *info,
		numSB: *numSB, sbSize: *sbSize, eb: *eb, metric: *metric,
		inPath: *inPath, outPath: *outPath, workers: *workers,
		stats: *stats, statsJSON: *statsJSON, trace: *trace, pprofAddr: *pprofAddr,
		metricsOut: *metricsOut, logMode: *logMode, logLevel: *logLevel,
		audit: *audit, auditOrig: *auditOrig,
		flightDir: *flightDir, flightSlack: *flightEB,
		stdout: os.Stdout,
	}
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "pastri: %v\n", err)
		os.Exit(1)
	}
}

// cliOpts carries the parsed command line; tests construct it directly
// and capture stdout through the embedded writer.
type cliOpts struct {
	compress, decompress, info bool
	numSB, sbSize              int
	eb                         float64
	metric                     string
	inPath, outPath            string
	workers                    int

	stats       bool
	statsJSON   string
	trace       bool
	pprofAddr   string
	metricsOut  string
	logMode     string
	logLevel    string
	audit       bool
	auditOrig   string
	flightDir   string
	flightSlack float64

	stdout io.Writer
	logw   io.Writer // structured-log sink; nil ⇒ os.Stderr
}

// collecting reports whether any observability flag needs a live
// collector.
func (o cliOpts) collecting() bool {
	return o.stats || o.statsJSON != "" || o.trace || o.pprofAddr != "" ||
		o.metricsOut != "" || o.audit || o.flightDir != "" || o.flightEnabled()
}

// flightEnabled reports whether a flight recorder should be attached.
func (o cliOpts) flightEnabled() bool {
	return o.flightDir != "" || o.flightSlack != 0
}

// newLogger builds the slog.Logger requested by -log/-loglevel; mode
// "off" (the default) returns nil, which every log site treats as one
// untaken branch.
func (o cliOpts) newLogger() (*slog.Logger, error) {
	if o.logMode == "" || o.logMode == "off" {
		return nil, nil
	}
	var lvl slog.Level
	switch o.logLevel {
	case "debug":
		lvl = slog.LevelDebug
	case "", "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -loglevel %q (want debug|info|warn|error)", o.logLevel)
	}
	w := o.logw
	if w == nil {
		w = os.Stderr
	}
	hopts := &slog.HandlerOptions{Level: lvl}
	switch o.logMode {
	case "text":
		return slog.New(slog.NewTextHandler(w, hopts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, hopts)), nil
	}
	return nil, fmt.Errorf("unknown -log %q (want text|json|off)", o.logMode)
}

func run(o cliOpts) error {
	if o.stdout == nil {
		o.stdout = os.Stdout
	}
	modes := 0
	for _, m := range []bool{o.compress, o.decompress, o.info} {
		if m {
			modes++
		}
	}
	if modes != 1 {
		return fmt.Errorf("pick exactly one of -c, -d, -info")
	}
	if o.inPath == "" {
		return fmt.Errorf("-in is required")
	}
	in, err := os.ReadFile(o.inPath)
	if err != nil {
		return err
	}

	logger, err := o.newLogger()
	if err != nil {
		return err
	}
	var col *pastri.Collector
	if o.collecting() {
		col = pastri.NewCollector()
	}
	if o.flightEnabled() {
		col.AttachFlight(pastri.NewFlightRecorder(pastri.FlightConfig{
			Dir:        o.flightDir,
			ErrorBound: o.eb,
			SlackFloor: o.flightSlack,
		}))
	}
	if o.pprofAddr != "" {
		ln, err := startDebugServer(o.pprofAddr, col)
		if err != nil {
			return err
		}
		defer ln.Close()
		fmt.Fprintf(o.stdout, "debug server : http://%s/debug/pprof (snapshot at /debug/vars)\n", ln.Addr())
	}

	switch {
	case o.info:
		si, err := pastri.Inspect(in)
		if err != nil {
			return err
		}
		fmt.Fprintf(o.stdout, "blocks        : %d\n", si.NumBlocks)
		fmt.Fprintf(o.stdout, "geometry      : %d sub-blocks x %d points\n",
			si.Options.NumSubBlocks, si.Options.SubBlockSize)
		fmt.Fprintf(o.stdout, "error bound   : %g\n", si.Options.ErrorBound)
		fmt.Fprintf(o.stdout, "metric        : %s\n", si.Options.Metric)
		fmt.Fprintf(o.stdout, "encoding      : %s\n", si.Options.Encoding)
		fmt.Fprintf(o.stdout, "raw size      : %d bytes\n", si.RawBytes)
		fmt.Fprintf(o.stdout, "compressed    : %d bytes (ratio %.2f)\n", len(in),
			float64(si.RawBytes)/float64(len(in)))
		return nil

	case o.compress:
		if o.outPath == "" {
			return fmt.Errorf("-out is required")
		}
		if len(in)%8 != 0 {
			return fmt.Errorf("input size %d is not a multiple of 8", len(in))
		}
		data := make([]float64, len(in)/8)
		for i := range data {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(in[i*8:]))
		}
		opts := pastri.NewOptions(o.numSB, o.sbSize, o.eb)
		opts.Workers = o.workers
		opts.Collector = col
		opts.Logger = logger
		var ok bool
		if opts.Metric, ok = metricByName(o.metric); !ok {
			return fmt.Errorf("unknown metric %q", o.metric)
		}
		comp, stats, err := pastri.CompressWithStats(data, opts)
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.outPath, comp, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(o.stdout, "%d blocks, %d -> %d bytes (ratio %.2f); types %v\n",
			stats.Blocks, len(in), len(comp), float64(len(in))/float64(len(comp)),
			stats.TypeCount)
		var auditErr error
		if o.audit {
			auditErr = auditStream(o, comp, data, col)
		}
		if err := emitTelemetry(o, col); err != nil {
			return err
		}
		return auditErr

	default: // decompress
		if o.outPath == "" {
			return fmt.Errorf("-out is required")
		}
		data, err := pastri.DecompressLogged(in, o.workers, col, logger)
		if err != nil {
			return err
		}
		out := make([]byte, len(data)*8)
		for i, v := range data {
			binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
		}
		if err := os.WriteFile(o.outPath, out, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(o.stdout, "%d -> %d bytes\n", len(in), len(out))
		var auditErr error
		if o.audit {
			if o.auditOrig == "" {
				return fmt.Errorf("-d -audit needs -auditorig with the original raw float64 file")
			}
			orig, err := readFloat64File(o.auditOrig)
			if err != nil {
				return err
			}
			auditErr = auditStream(o, in, orig, col)
		}
		if err := emitTelemetry(o, col); err != nil {
			return err
		}
		return auditErr
	}
}

// readFloat64File loads a raw little-endian float64 file.
func readFloat64File(path string) ([]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("%s: size %d is not a multiple of 8", path, len(b))
	}
	data := make([]float64, len(b)/8)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return data, nil
}

// auditStream independently re-decodes every block of comp through the
// random-access reader and verifies it against the corresponding block
// of original with internal/zcheck, using the bound recorded in the
// stream itself. Violations count into the collector's eb_violations
// telemetry and fail the run — this is the operator's end-to-end proof
// that the hard error bound held, priced at one extra decode pass.
func auditStream(o cliOpts, comp []byte, original []float64, col *pastri.Collector) error {
	info, err := pastri.Inspect(comp)
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	br, err := pastri.NewBlockReader(comp)
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	bs := br.BlockSize()
	if len(original) != br.NumBlocks()*bs {
		return fmt.Errorf("audit: original has %d values, stream decodes to %d", len(original), br.NumBlocks()*bs)
	}
	bound := info.Options.ErrorBound
	buf := make([]float64, bs)
	maxErr := 0.0
	violations := 0
	for b := 0; b < br.NumBlocks(); b++ {
		if err := br.ReadBlock(b, buf); err != nil {
			return fmt.Errorf("audit: block %d: %w", b, err)
		}
		rep, err := zcheck.Assess(original[b*bs:(b+1)*bs], buf, br.CompressedBlockBytes(b), bound)
		if err != nil {
			return fmt.Errorf("audit: block %d: %w", b, err)
		}
		if rep.MaxAbsErr > maxErr {
			maxErr = rep.MaxAbsErr
		}
		if rep.BoundViolated {
			violations++
		}
	}
	col.AddEBViolations(violations)
	fmt.Fprintf(o.stdout, "audit: %d blocks, max abs err %.3e (bound %g), violations %d\n",
		br.NumBlocks(), maxErr, bound, violations)
	if violations > 0 {
		return fmt.Errorf("audit: %d of %d blocks violate the error bound %g", violations, br.NumBlocks(), bound)
	}
	return nil
}

// emitTelemetry renders the collector per the -stats/-statsjson/-trace
// flags after a compression or decompression run.
func emitTelemetry(o cliOpts, col *pastri.Collector) error {
	if col == nil {
		return nil
	}
	snap := col.Snapshot()
	if o.stats {
		printStats(o.stdout, snap)
	}
	if o.trace {
		printTrace(o.stdout, snap)
	}
	if o.statsJSON != "" {
		js := append(snap.JSON(), '\n')
		if o.statsJSON == "-" {
			if _, err := o.stdout.Write(js); err != nil {
				return err
			}
		} else if err := os.WriteFile(o.statsJSON, js, 0o644); err != nil {
			return err
		}
	}
	if o.metricsOut != "" {
		if err := writeMetrics(o, col); err != nil {
			return err
		}
	}
	if fr := col.Flight(); fr != nil {
		for reason, n := range snap.FlightAnomalies {
			fmt.Fprintf(o.stdout, "flight: %d %s anomalies\n", n, reason)
		}
		for _, p := range fr.ArtifactPaths() {
			fmt.Fprintf(o.stdout, "flight artifact: %s\n", p)
		}
		if err := fr.Err(); err != nil {
			return fmt.Errorf("flight recorder: %w", err)
		}
	}
	return nil
}

// writeMetrics renders one final Prometheus text-format scrape to the
// -metricsout path ("-" = stdout) — the same bytes /metrics would
// serve, but file-shaped so batch runs and CI can archive a scrape
// without racing a short-lived debug server.
func writeMetrics(o cliOpts, col *pastri.Collector) error {
	if o.metricsOut == "-" {
		return col.WritePrometheus(o.stdout)
	}
	f, err := os.Create(o.metricsOut)
	if err != nil {
		return err
	}
	if err := col.WritePrometheus(f); err != nil {
		f.Close() //lint:errdrop-ok the write error is already being reported
		return err
	}
	return f.Close()
}

// printStats renders the human-readable telemetry summary: byte
// accounting, per-encoding block mix, and the per-stage timer table.
func printStats(w io.Writer, snap *pastri.CollectorSnapshot) {
	fmt.Fprintf(w, "-- telemetry --\n")
	if snap.Blocks > 0 {
		fmt.Fprintf(w, "blocks        : %d\n", snap.Blocks)
		fmt.Fprintf(w, "bytes in      : %d\n", snap.BytesIn)
		fmt.Fprintf(w, "bytes out     : %d (payload %d + framing %d)\n",
			snap.BytesOutTotal, snap.BytesOutPayload, snap.BytesOutFraming)
		var encs []string
		for name := range snap.Encodings {
			encs = append(encs, name)
		}
		sort.Strings(encs)
		fmt.Fprintf(w, "encodings     :")
		for _, name := range encs {
			fmt.Fprintf(w, " %s=%d", name, snap.Encodings[name])
		}
		fmt.Fprintln(w)
	}
	if snap.BlocksDecoded > 0 {
		fmt.Fprintf(w, "decoded       : %d blocks, %d -> %d bytes\n",
			snap.BlocksDecoded, snap.DecodedBytesIn, snap.DecodedBytesOut)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "stage\tcount\ttotal\tavg\tmin\tmax")
	var stages []string
	for name := range snap.Stages {
		stages = append(stages, name)
	}
	sort.Strings(stages)
	for _, name := range stages {
		s := snap.Stages[name]
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\n", name, s.Count,
			fmtNS(s.TotalNS), fmtNS(s.AvgNS), fmtNS(s.MinNS), fmtNS(s.MaxNS))
	}
	tw.Flush()
}

// printTrace renders the trace ring, oldest first.
func printTrace(w io.Writer, snap *pastri.CollectorSnapshot) {
	fmt.Fprintf(w, "-- trace (last %d blocks, completion order) --\n", len(snap.Traces))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "block\tsub-blocks\texp-span\tencoding\tin\tout\teb-slack")
	for _, tr := range snap.Traces {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%s\t%d\t%d\t%.3e\n",
			tr.Block, tr.SubBlocks, tr.ExpSpan, tr.Encoding, tr.BytesIn, tr.BytesOut, tr.EBSlack)
	}
	tw.Flush()
}

// fmtNS renders nanoseconds with an adaptive unit.
func fmtNS(ns uint64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", float64(ns)/1e3)
	}
	return fmt.Sprintf("%dns", ns)
}

// The expvar registry is process-global and write-once per name, but
// tests (and hypothetically a long-lived caller) run several
// compressions; publish a single "pastri" Func that follows the
// current collector pointer instead of publishing per run.
var (
	activeCollector atomic.Pointer[pastri.Collector]
	publishOnce     sync.Once
)

// startDebugServer serves DefaultServeMux — which net/http/pprof and
// expvar populate with /debug/pprof and /debug/vars — on addr, and
// exposes col as the "pastri" expvar plus a Prometheus text-format
// /metrics endpoint. The returned listener reports the bound address
// (useful with ":0") and stops the server when closed.
func startDebugServer(addr string, col *pastri.Collector) (net.Listener, error) {
	activeCollector.Store(col)
	publishOnce.Do(func() {
		expvar.Publish("pastri", expvar.Func(func() any {
			return activeCollector.Load().Snapshot()
		}))
		http.Handle("/metrics", pastri.MetricsHandler(activeCollector.Load))
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() {
		// Serve returns when the listener closes at end of run; its
		// error is uninteresting by then.
		_ = http.Serve(ln, nil)
	}()
	return ln, nil
}

func metricByName(name string) (pastri.Metric, bool) {
	switch name {
	case "ER":
		return pastri.MetricER, true
	case "FR":
		return pastri.MetricFR, true
	case "AR":
		return pastri.MetricAR, true
	case "AAR":
		return pastri.MetricAAR, true
	case "IS":
		return pastri.MetricIS, true
	}
	return 0, false
}
