package core

import (
	"encoding/binary"
	"fmt"
	"log/slog"
	"math"

	"repro/internal/bitio"
	"repro/internal/encoding"
	"repro/internal/par"
	"repro/internal/pattern"
	"repro/internal/telemetry"
)

// Stream format
//
//	magic    [4]byte  "PSTR"
//	version  uint8    1
//	metric   uint8
//	encoding uint8
//	flags    uint8    bit0 = sparse disabled
//	eb       float64  (IEEE-754 bits, little endian)
//	numSB    uint32
//	sbSize   uint32
//	nblocks  uint64
//	blocks   nblocks × { uvarint payloadLen; payload }
//
// Each block payload is byte-aligned and self-contained, so blocks can be
// compressed and decompressed fully independently — the property the
// paper highlights for parallel execution (Sec. IV-C).

var streamMagic = [4]byte{'P', 'S', 'T', 'R'}

const streamVersion = 1

// headerSize is the fixed-size portion of the stream header in bytes.
const headerSize = 4 + 1 + 1 + 1 + 1 + 8 + 4 + 4 + 8

// Compress compresses data (a whole number of blocks) under cfg,
// fanning blocks out over cfg.Workers goroutines (see parallel.go). If
// stats is non-nil it receives the merged per-block statistics.
func Compress(data []float64, cfg Config, stats *Stats) ([]byte, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bs := cfg.BlockSize()
	if len(data)%bs != 0 {
		return nil, fmt.Errorf("core: data length %d is not a multiple of block size %d", len(data), bs)
	}

	payloads, err := compressPayloads(data, cfg, cfg.Workers, stats)
	if err != nil {
		return nil, err
	}
	out := assembleStream(payloads, cfg)
	putPayloads(payloads) // contents copied into out; recycle the buffers
	if cfg.Logger != nil {
		ratio := 0.0
		if len(out) > 0 {
			ratio = float64(len(data)*8) / float64(len(out))
		}
		cfg.Info("stream compressed",
			slog.Int("blocks", len(data)/bs),
			slog.String("class", quartetClass(cfg.NumSB, cfg.SBSize)),
			slog.Float64("error_bound", cfg.ErrorBound),
			slog.Int("bytes_in", len(data)*8),
			slog.Int("bytes_out", len(out)),
			slog.Float64("ratio", ratio))
	}
	return out, nil
}

// assembleStream concatenates header, varint framing and block
// payloads. Framing bytes (everything that is not block payload) are
// reported to the collector so payload + framing equals the stream
// size exactly.
func assembleStream(payloads []*[]byte, cfg Config) []byte {
	defer cfg.Stage(telemetry.StageWrite).End()
	framing := headerSize
	total := headerSize
	var lenBuf [binary.MaxVarintLen64]byte
	for _, p := range payloads {
		n := binary.PutUvarint(lenBuf[:], uint64(len(*p)))
		framing += n
		total += n + len(*p)
	}
	out := make([]byte, 0, total)
	out = appendHeader(out, cfg, uint64(len(payloads)))
	for _, p := range payloads {
		n := binary.PutUvarint(lenBuf[:], uint64(len(*p)))
		out = append(out, lenBuf[:n]...)
		out = append(out, *p...)
	}
	cfg.Collector.AddFramingBytes(framing)
	return out
}

func appendHeader(dst []byte, cfg Config, nblocks uint64) []byte {
	dst = append(dst, streamMagic[:]...)
	dst = append(dst, streamVersion, byte(cfg.Metric), byte(cfg.Encoding), flagsByte(cfg))
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], math.Float64bits(cfg.ErrorBound))
	dst = append(dst, b8[:]...)
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(cfg.NumSB))
	dst = append(dst, b4[:]...)
	binary.LittleEndian.PutUint32(b4[:], uint32(cfg.SBSize))
	dst = append(dst, b4[:]...)
	binary.LittleEndian.PutUint64(b8[:], nblocks)
	dst = append(dst, b8[:]...)
	return dst
}

func flagsByte(cfg Config) byte {
	var f byte
	if cfg.DisableSparse {
		f |= 1
	}
	return f
}

// ParseHeader recovers the Config and block count from a compressed
// stream, returning also the offset at which block payloads begin. For
// a streamed file (NewStreamWriter) the count is the streaming
// sentinel; NewBlockReader's NumBlocks gives the real count.
func ParseHeader(comp []byte) (Config, uint64, int, error) {
	if len(comp) < headerSize {
		return Config{}, 0, 0, fmt.Errorf("core: stream too short (%d bytes)", len(comp))
	}
	if [4]byte(comp[:4]) != streamMagic {
		return Config{}, 0, 0, fmt.Errorf("core: bad magic %q", comp[:4])
	}
	if comp[4] != streamVersion {
		return Config{}, 0, 0, fmt.Errorf("core: unsupported version %d", comp[4])
	}
	cfg := Config{
		Metric:        metricFromByte(comp[5]),
		Encoding:      encodingFromByte(comp[6]),
		DisableSparse: comp[7]&1 != 0,
		ErrorBound:    math.Float64frombits(binary.LittleEndian.Uint64(comp[8:16])),
		NumSB:         int(binary.LittleEndian.Uint32(comp[16:20])),
		SBSize:        int(binary.LittleEndian.Uint32(comp[20:24])),
	}
	nblocks := binary.LittleEndian.Uint64(comp[24:32])
	if err := cfg.Validate(); err != nil {
		return Config{}, 0, 0, fmt.Errorf("core: corrupt header: %w", err)
	}
	return cfg, nblocks, headerSize, nil
}

// Decompress reconstructs the original data from a compressed stream,
// fanning blocks out over workers goroutines (0 ⇒ GOMAXPROCS).
func Decompress(comp []byte, workers int) ([]float64, error) {
	return DecompressObserved(comp, workers, telemetry.Observer{})
}

// DecompressObserved is Decompress under an observer: per-block decode
// timings and decoded block/byte counts go to obs.Collector, and a
// successful run logs one Info summary (blocks, bytes, workers, the
// stream's geometry and error bound). Decompression reads its Config
// from the stream header, so the observer cannot ride in via Config
// and is passed explicitly here.
func DecompressObserved(comp []byte, workers int, obs telemetry.Observer) ([]float64, error) {
	// Slice out per-block payloads first (sequential scan over varints).
	cfg, spans, err := scanSpans(comp)
	if err != nil {
		return nil, err
	}
	cfg.Observer = obs
	col := obs.Collector
	bs := cfg.BlockSize()
	out := make([]float64, len(spans)*bs)
	workers = par.Workers(workers, len(spans))
	err = par.Each(len(spans), workers, func(next func() (int, bool)) error {
		dec := getDecoder(cfg)
		defer putDecoder(dec)
		r := bitio.NewReader(nil)
		for b, ok := next(); ok; b, ok = next() {
			r.Reset(comp[spans[b].lo:spans[b].hi])
			if err := dec.DecodeBlock(r, out[b*bs:(b+1)*bs]); err != nil {
				return fmt.Errorf("core: block %d: %w", b, err)
			}
			col.RecordDecodedBlock(spans[b].hi-spans[b].lo, bs*8)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if obs.Logger != nil {
		obs.Info("stream decompressed",
			slog.Int("blocks", len(spans)),
			slog.String("class", quartetClass(cfg.NumSB, cfg.SBSize)),
			slog.Float64("error_bound", cfg.ErrorBound),
			slog.Int("bytes_in", len(comp)),
			slog.Int("bytes_out", len(out)*8),
			slog.Int("workers", workers))
	}
	return out, nil
}

func metricFromByte(b byte) pattern.Metric    { return pattern.Metric(b) }
func encodingFromByte(b byte) encoding.Method { return encoding.Method(b) }
