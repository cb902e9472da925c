package pastri

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/pattern"
	"repro/internal/telemetry"
)

// Metric selects the pattern-scaling method (Sec. IV-A of the paper).
type Metric int

// The five scaling metrics evaluated in the paper's Fig. 4. ER (ratio
// of extremums) is the shipped default: best compression ratio, lowest
// cost.
const (
	MetricER  Metric = Metric(pattern.ER)
	MetricFR  Metric = Metric(pattern.FR)
	MetricAR  Metric = Metric(pattern.AR)
	MetricAAR Metric = Metric(pattern.AAR)
	MetricIS  Metric = Metric(pattern.IS)
)

// String returns the paper's abbreviation.
func (m Metric) String() string { return pattern.Metric(m).String() }

// Encoding selects the error-correction code encoder (Sec. IV-C).
type Encoding int

// The encoders evaluated in the paper's Fig. 7. Tree 5, the adaptive
// tree, is the shipped default.
const (
	EncodingTree5 Encoding = Encoding(encoding.Tree5)
	EncodingFixed Encoding = Encoding(encoding.Fixed)
	EncodingTree1 Encoding = Encoding(encoding.Tree1)
	EncodingTree2 Encoding = Encoding(encoding.Tree2)
	EncodingTree3 Encoding = Encoding(encoding.Tree3)
	EncodingTree4 Encoding = Encoding(encoding.Tree4)
)

// String returns a short name for the encoding.
func (e Encoding) String() string { return encoding.Method(e).String() }

// Options configures compression. Construct with NewOptions and adjust
// fields as needed; the zero value is invalid.
type Options struct {
	// NumSubBlocks is the number of sub-blocks per block. For an ERI
	// shell-quartet block of shape Na×Nb×Nc×Nd this is Na·Nb.
	NumSubBlocks int
	// SubBlockSize is the number of points per sub-block (Nc·Nd for an
	// ERI block); it is also the length of the stored pattern.
	SubBlockSize int
	// ErrorBound is the absolute error bound every reconstructed value
	// honors. GAMESS applications typically need 1e-10 (Sec. V-A).
	ErrorBound float64
	// Metric is the pattern-scaling method (default MetricER).
	Metric Metric
	// Encoding is the error-correction encoder (default EncodingTree5).
	Encoding Encoding
	// DisableSparse forces the dense ECQ representation; it exists for
	// ablation studies and costs compression ratio.
	DisableSparse bool
	// Workers bounds (de)compression parallelism; 0 uses GOMAXPROCS.
	Workers int
	// Collector, when non-nil, receives per-stage timings, byte
	// accounting and per-block trace records from every compression or
	// decompression run under these options (see NewCollector). The nil
	// default is zero-cost: each instrumentation point reduces to one
	// untaken branch.
	Collector *Collector
	// Logger, when non-nil, receives structured logs from every run under
	// these options: one Info summary per stream or container section,
	// and — when the handler enables Debug — one record per block with
	// its id, shell-quartet class, error-bound slack and chosen encoding.
	// Like Collector, the nil default costs one untaken branch per site.
	Logger *slog.Logger
}

// NewOptions returns the paper's shipped configuration for the given
// block geometry and absolute error bound: ER pattern scaling, Tree-5
// encoding, adaptive sparse ECQ representation.
func NewOptions(numSubBlocks, subBlockSize int, errorBound float64) Options {
	return Options{
		NumSubBlocks: numSubBlocks,
		SubBlockSize: subBlockSize,
		ErrorBound:   errorBound,
		Metric:       MetricER,
		Encoding:     EncodingTree5,
	}
}

// ERIOptions returns Options for a shell-quartet tensor (AB|CD) with
// the given per-shell basis-function counts, e.g. ERIOptions(6, 6, 6,
// 6, 1e-10) for a (dd|dd) block stream.
func ERIOptions(na, nb, nc, nd int, errorBound float64) Options {
	return NewOptions(na*nb, nc*nd, errorBound)
}

// BlockSize returns the number of float64 values per block.
func (o Options) BlockSize() int { return o.NumSubBlocks * o.SubBlockSize }

func (o Options) internal() core.Config {
	return core.Config{
		NumSB:         o.NumSubBlocks,
		SBSize:        o.SubBlockSize,
		ErrorBound:    o.ErrorBound,
		Metric:        pattern.Metric(o.Metric),
		Encoding:      encoding.Method(o.Encoding),
		DisableSparse: o.DisableSparse,
		Workers:       o.Workers,
		Observer:      telemetry.Observer{Collector: o.Collector, Logger: o.Logger},
	}
}

// Validate reports whether the options are usable.
func (o Options) Validate() error { return o.internal().Validate() }

// Compress compresses data, which must contain a whole number of blocks
// of o.BlockSize() values. The result is a self-describing stream:
// Decompress needs no options.
func Compress(data []float64, o Options) ([]byte, error) {
	return core.Compress(data, o.internal(), nil)
}

// Decompress reconstructs the original values from a compressed stream,
// exact to within the stream's recorded error bound. It uses all
// available cores; use DecompressWorkers to bound parallelism.
func Decompress(comp []byte) ([]float64, error) {
	return core.Decompress(comp, 0)
}

// DecompressWorkers is Decompress with an explicit worker count
// (0 means GOMAXPROCS).
func DecompressWorkers(comp []byte, workers int) ([]float64, error) {
	return core.Decompress(comp, workers)
}

// Collector aggregates pipeline observability: lock-free counters,
// bucketed histograms, per-stage timers and a per-block trace ring
// buffer (see internal/telemetry). Attach one via Options.Collector
// (compression) or DecompressLogged (decompression); read it with
// Snapshot (pull-based — the pipeline never calls back), render it
// with Snapshot.JSON, or serve it live with Publish plus an HTTP
// server exposing expvar's /debug/vars. A nil *Collector is a valid
// no-op sink. One collector may be shared by any number of concurrent
// workers; its counters stay exact regardless of schedule.
type Collector = telemetry.Collector

// CollectorSnapshot is the point-in-time view Collector.Snapshot
// returns.
type CollectorSnapshot = telemetry.Snapshot

// TraceRecord is one block's entry in a Collector's trace ring.
type TraceRecord = telemetry.TraceRecord

// NewCollector returns a live Collector with the default trace depth
// (the most recent 256 blocks).
func NewCollector() *Collector { return telemetry.New(0) }

// MetricsHandler returns an http.Handler serving Prometheus text
// format for whatever collector get returns at scrape time (nil is
// fine: runtime gauges are still served). Mount it at /metrics next to
// net/http/pprof; see Collector.WritePrometheus for the metric
// families.
func MetricsHandler(get func() *Collector) http.Handler { return telemetry.MetricsHandler(get) }

// FlightRecorder is the pipeline's quality black box: attached to a
// Collector (Collector.AttachFlight), it watches every block for
// error-bound slack violations and compression-ratio outliers against
// a rolling baseline, counts anomalies per reason, and dumps bounded
// JSON artifacts replayable through cmd/zcheck -flight.
type FlightRecorder = telemetry.FlightRecorder

// FlightConfig parameterizes a FlightRecorder; zero fields take
// documented defaults.
type FlightConfig = telemetry.FlightConfig

// FlightArtifact is one captured anomaly as serialized to disk.
type FlightArtifact = telemetry.FlightArtifact

// NewFlightRecorder returns a recorder with cfg's zero fields filled
// with defaults. Attach it with Collector.AttachFlight before the run.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder { return telemetry.NewFlightRecorder(cfg) }

// ReadFlightArtifact loads a flight-recorder artifact from disk.
func ReadFlightArtifact(path string) (*FlightArtifact, error) {
	return telemetry.ReadFlightArtifact(path)
}

// DecompressLogged is DecompressWorkers observed: per-block decode
// timings and decoded block/byte counts are recorded into c, and a
// successful run logs one Info summary with the stream's geometry,
// error bound, block and byte counts to logger. Either may be nil.
// Decompression reads its configuration from the stream header, so the
// collector and logger are passed here rather than via Options.
func DecompressLogged(comp []byte, workers int, c *Collector, logger *slog.Logger) ([]float64, error) {
	return core.DecompressObserved(comp, workers, telemetry.Observer{Collector: c, Logger: logger})
}

// StreamInfo describes a compressed stream without decompressing it.
type StreamInfo struct {
	Options   Options
	NumBlocks uint64
	// RawBytes is the size of the decompressed data in bytes.
	RawBytes uint64
}

// Inspect parses a compressed stream's header and validates its block
// index, so a truncated or corrupt stream does not inspect cleanly.
// Streams written incrementally (NewStreamWriter) record no block
// count; Inspect recovers it from the index scan.
func Inspect(comp []byte) (StreamInfo, error) {
	cfg, _, _, err := core.ParseHeader(comp)
	if err != nil {
		return StreamInfo{}, err
	}
	br, err := core.NewBlockReader(comp)
	if err != nil {
		return StreamInfo{}, err
	}
	nblocks := uint64(br.NumBlocks())
	return StreamInfo{
		Options: Options{
			NumSubBlocks:  cfg.NumSB,
			SubBlockSize:  cfg.SBSize,
			ErrorBound:    cfg.ErrorBound,
			Metric:        Metric(cfg.Metric),
			Encoding:      Encoding(cfg.Encoding),
			DisableSparse: cfg.DisableSparse,
		},
		NumBlocks: nblocks,
		RawBytes:  nblocks * uint64(cfg.NumSB) * uint64(cfg.SBSize) * 8,
	}, nil
}

// Stats summarizes how a stream was compressed: the block-type mix of
// Fig. 6 and the output composition of Sec. V-B.
type Stats struct {
	Blocks uint64
	// TypeCount counts blocks per ECQ-range type: Type 0 (all ECQ zero),
	// Type 1 ({−1,0,1}), Type 2 (≤ 6 bits), Type 3 (> 6 bits).
	TypeCount [4]uint64
	// PatternScaleFraction, ECQFraction and BookkeepingFraction are the
	// shares of the output spent on PQ+SQ, ECQ, and per-block metadata.
	PatternScaleFraction float64
	ECQFraction          float64
	BookkeepingFraction  float64
	// SparseBlocks counts blocks that chose the sparse ECQ
	// representation (Sec. IV-C's adaptive choice).
	SparseBlocks uint64
}

// CompressWithStats is Compress, additionally reporting per-block
// statistics.
func CompressWithStats(data []float64, o Options) ([]byte, Stats, error) {
	cs := core.NewStats()
	comp, err := core.Compress(data, o.internal(), cs)
	if err != nil {
		return nil, Stats{}, err
	}
	ps, ecq, book := cs.Fractions()
	return comp, Stats{
		Blocks:               cs.Blocks,
		TypeCount:            cs.TypeCount,
		PatternScaleFraction: ps,
		ECQFraction:          ecq,
		BookkeepingFraction:  book,
		SparseBlocks:         cs.SparseBlocks,
	}, nil
}

// BlockReader decompresses individual blocks of a stream on demand —
// random access enabled by PaSTRI's per-block independence. A solver
// can fetch just the shell quartets it needs for one Fock-build tile
// instead of inflating the whole stream. Not safe for concurrent use;
// create one reader per goroutine over the same stream bytes.
type BlockReader struct {
	r *core.BlockReader
}

// NewBlockReader indexes a compressed stream for random access without
// decompressing anything. The stream bytes are retained, not copied.
func NewBlockReader(comp []byte) (*BlockReader, error) {
	r, err := core.NewBlockReader(comp)
	if err != nil {
		return nil, err
	}
	return &BlockReader{r: r}, nil
}

// NumBlocks returns the number of blocks in the stream.
func (br *BlockReader) NumBlocks() int { return br.r.NumBlocks() }

// BlockSize returns the number of float64 values per block.
func (br *BlockReader) BlockSize() int { return br.r.Config().BlockSize() }

// ReadBlock decompresses block b into dst, which must have BlockSize()
// elements.
func (br *BlockReader) ReadBlock(b int, dst []float64) error {
	return br.r.ReadBlock(b, dst)
}

// CompressedBlockBytes returns the compressed size of block b.
func (br *BlockReader) CompressedBlockBytes(b int) int {
	return br.r.CompressedBlockBytes(b)
}

// StreamWriter compresses blocks incrementally to an io.Writer —
// suitable for datasets too large to hold raw in memory (the regime the
// paper targets). WriteBlock hands each block to a pool of
// Options.Workers goroutines and a sequencer writes the compressed
// payloads in submission order, so the stream is byte-identical at
// every worker count. Streams it produces are readable by Decompress,
// NewBlockReader and NewStreamReader alike. WriteBlock and Close must
// be called from a single goroutine.
type StreamWriter struct {
	w *core.StreamWriter
}

// NewStreamWriter writes a stream header to w and returns a writer that
// appends one compressed block per WriteBlock call, encoding over
// o.Workers goroutines (0 means GOMAXPROCS). Close drains and flushes
// it.
func NewStreamWriter(w io.Writer, o Options) (*StreamWriter, error) {
	sw, err := core.NewStreamWriter(w, o.internal())
	if err != nil {
		return nil, err
	}
	return &StreamWriter{w: sw}, nil
}

// WriteBlock submits one block of o.BlockSize() values for compression.
// The block is copied; the caller may reuse it immediately. Encoding
// is asynchronous, so an encoding error may surface on a later
// WriteBlock or on Close.
func (s *StreamWriter) WriteBlock(block []float64) error { return s.w.WriteBlock(block) }

// Blocks returns the number of blocks fully written to the underlying
// writer so far; it can lag behind WriteBlock until Close, and after a
// successful Close it equals the number submitted.
func (s *StreamWriter) Blocks() uint64 { return s.w.Blocks() }

// Close drains the worker pool, flushes buffered output and returns the
// first error in block order, if any. The underlying writer stays open.
func (s *StreamWriter) Close() error { return s.w.Close() }

// StreamReader decompresses blocks incrementally from an io.Reader.
type StreamReader struct {
	r *core.StreamReader
}

// NewStreamReader parses the stream header and prepares sequential
// block reads.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	sr, err := core.NewStreamReader(r)
	if err != nil {
		return nil, err
	}
	return &StreamReader{r: sr}, nil
}

// BlockSize returns the number of float64 values per block.
func (s *StreamReader) BlockSize() int { return s.r.Config().BlockSize() }

// ErrorBound returns the stream's absolute error bound.
func (s *StreamReader) ErrorBound() float64 { return s.r.Config().ErrorBound }

// ReadBlock decompresses the next block into dst (BlockSize() values);
// io.EOF signals the end of the stream.
func (s *StreamReader) ReadBlock(dst []float64) error { return s.r.ReadBlock(dst) }

// MaxError returns the worst-case absolute reconstruction error of a
// stream: its recorded error bound.
func MaxError(comp []byte) (float64, error) {
	info, err := Inspect(comp)
	if err != nil {
		return 0, fmt.Errorf("pastri: %w", err)
	}
	return info.Options.ErrorBound, nil
}
