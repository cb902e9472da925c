// Package container implements a multi-section PaSTRI file for
// mixed-geometry workloads. A plain PaSTRI stream holds blocks of one
// shape; real ERI runs over hybrid basis configurations emit many block
// shapes — the paper's "(df|fd), etc." datasets, where a quartet of d
// and f shells yields e.g. 6·10 sub-blocks of 10·6 points. A container
// groups blocks by geometry into sections, each an independent PaSTRI
// stream, preserving the original block order via a block directory.
//
// Layout:
//
//	magic     [4]byte "PSTC"
//	version   uint8
//	nsections uint32
//	norder    uint64                   (total blocks, in original order)
//	order     norder × uvarint         (section index per block)
//	sections  nsections × { uvarint length; PaSTRI stream }
//
// The per-block section assignment plus each section's internal order
// reconstructs the original sequence: the k-th occurrence of section s
// in the directory is block k of section s.
package container

import (
	"encoding/binary"
	"fmt"
	"log/slog"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/telemetry"
)

var magic = [4]byte{'P', 'S', 'T', 'C'}

const version = 1

// Geometry is a block shape.
type Geometry struct {
	NumSB  int
	SBSize int
}

// BlockSize returns values per block.
func (g Geometry) BlockSize() int { return g.NumSB * g.SBSize }

// Writer assembles a container in memory. Blocks may arrive in any
// geometry order; Bytes() compresses each section (in parallel, via the
// core stream codec) and serializes the result.
type Writer struct {
	cfgBase  core.Config
	sections map[Geometry]int
	raw      [][]float64 // per section: concatenated raw blocks
	geos     []Geometry
	order    []uint32
}

// NewWriter creates a container writer. base supplies everything except
// the geometry (error bound, metric, encoding, sparse flag, workers).
func NewWriter(base core.Config) (*Writer, error) {
	probe := base
	probe.NumSB, probe.SBSize = 1, 1
	if err := probe.Validate(); err != nil {
		return nil, err
	}
	return &Writer{
		cfgBase:  base,
		sections: map[Geometry]int{},
	}, nil
}

// WriteBlock appends one block of the given geometry. The
// geometry-grouping work is accounted as block-split time.
func (w *Writer) WriteBlock(g Geometry, block []float64) error {
	if g.NumSB <= 0 || g.SBSize <= 0 {
		return fmt.Errorf("container: invalid geometry %d×%d", g.NumSB, g.SBSize)
	}
	if len(block) != g.BlockSize() {
		return fmt.Errorf("container: block has %d values, geometry wants %d", len(block), g.BlockSize())
	}
	split := w.cfgBase.Stage(telemetry.StageBlockSplit)
	idx, ok := w.sections[g]
	if !ok {
		idx = len(w.geos)
		w.sections[g] = idx
		w.geos = append(w.geos, g)
		w.raw = append(w.raw, nil)
	}
	w.raw[idx] = append(w.raw[idx], block...)
	w.order = append(w.order, uint32(idx))
	split.End()
	return nil
}

// Sections returns the number of distinct geometries seen.
func (w *Writer) Sections() int { return len(w.geos) }

// Blocks returns the total number of blocks written.
func (w *Writer) Blocks() int { return len(w.order) }

// Bytes serializes the container. Sections are compressed concurrently
// (bounded by the base config's Workers setting, 0 ⇒ GOMAXPROCS), then
// appended in section order, so the output is byte-identical no matter
// how the work was scheduled.
func (w *Writer) Bytes() ([]byte, error) {
	streams, err := w.compressSections()
	if err != nil {
		return nil, err
	}
	defer w.cfgBase.Stage(telemetry.StageWrite).End()
	var out []byte
	out = append(out, magic[:]...)
	out = append(out, version)
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(len(w.geos)))
	out = append(out, b4[:]...)
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], uint64(len(w.order)))
	out = append(out, b8[:]...)
	var vb [binary.MaxVarintLen64]byte
	for _, s := range w.order {
		n := binary.PutUvarint(vb[:], uint64(s))
		out = append(out, vb[:n]...)
	}
	streamBytes := 0
	for _, stream := range streams {
		n := binary.PutUvarint(vb[:], uint64(len(stream)))
		out = append(out, vb[:n]...)
		out = append(out, stream...)
		streamBytes += len(stream)
	}
	// Section streams already accounted their own header/varint framing
	// via core.Compress; the container adds its magic, counts,
	// directory and section-length varints on top.
	w.cfgBase.Collector.AddFramingBytes(len(out) - streamBytes)
	return out, nil
}

// compressSections compresses every section into its own stream,
// fanning sections out over a bounded pool. streams[i] depends only on
// section i's blocks and the base config, never on scheduling. When
// sections run in parallel, each section's internal block fan-out is
// disabled (Workers=1) in favor of section-level parallelism; a lone
// section, or a one-worker base config, keeps the base Workers setting
// for its blocks.
func (w *Writer) compressSections() ([][]byte, error) {
	streams := make([][]byte, len(w.geos))
	workers := par.Workers(w.cfgBase.Workers, len(w.geos))
	err := par.Each(len(w.geos), workers, func(next func() (int, bool)) error {
		for i, ok := next(); ok; i, ok = next() {
			cfg := w.cfgBase
			cfg.NumSB, cfg.SBSize = w.geos[i].NumSB, w.geos[i].SBSize
			if workers > 1 {
				cfg.Workers = 1 // section-level parallelism only
			}
			stream, err := core.Compress(w.raw[i], cfg, nil)
			if err != nil {
				return fmt.Errorf("container: section %d: %w", i, err)
			}
			streams[i] = stream
			w.logSection(i, w.geos[i], len(stream))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return streams, nil
}

// logSection emits one Info record per compressed section: the section
// index, its shell-quartet class, and the raw/compressed byte counts.
// slog handlers are safe for concurrent use, so the parallel path logs
// without extra locking.
func (w *Writer) logSection(i int, g Geometry, streamBytes int) {
	if w.cfgBase.Logger == nil {
		return
	}
	blocks := 0
	if bs := g.BlockSize(); bs > 0 {
		blocks = len(w.raw[i]) / bs
	}
	w.cfgBase.Info("section compressed",
		slog.Int("section", i),
		slog.String("class", fmt.Sprintf("%dx%d", g.NumSB, g.SBSize)),
		slog.Int("blocks", blocks),
		slog.Int("bytes_in", len(w.raw[i])*8),
		slog.Int("bytes_out", streamBytes))
}

// Reader decodes a container.
type Reader struct {
	order    []uint32
	sections []*core.BlockReader
	// cursor[s] is the next block index within section s during
	// sequential replay; consumed counts blocks replayed so far.
	cursor   []int
	consumed int
}

// NewReader parses a container.
func NewReader(buf []byte) (*Reader, error) {
	if len(buf) < 17 {
		return nil, fmt.Errorf("container: too short")
	}
	if [4]byte(buf[:4]) != magic {
		return nil, fmt.Errorf("container: bad magic %q", buf[:4])
	}
	if buf[4] != version {
		return nil, fmt.Errorf("container: unsupported version %d", buf[4])
	}
	nsec := binary.LittleEndian.Uint32(buf[5:9])
	norder := binary.LittleEndian.Uint64(buf[9:17])
	if nsec > 1<<16 || norder > 1<<40 {
		return nil, fmt.Errorf("container: implausible counts (%d sections, %d blocks)", nsec, norder)
	}
	off := 17
	r := &Reader{order: make([]uint32, norder)}
	for i := range r.order {
		v, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return nil, fmt.Errorf("container: corrupt directory at %d", off)
		}
		if v >= uint64(nsec) {
			return nil, fmt.Errorf("container: directory entry %d out of range", v)
		}
		r.order[i] = uint32(v)
		off += n
	}
	for s := uint32(0); s < nsec; s++ {
		length, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return nil, fmt.Errorf("container: corrupt section length at %d", off)
		}
		off += n
		if uint64(len(buf)-off) < length {
			return nil, fmt.Errorf("container: truncated section %d", s)
		}
		br, err := core.NewBlockReader(buf[off : off+int(length)])
		if err != nil {
			return nil, fmt.Errorf("container: section %d: %w", s, err)
		}
		r.sections = append(r.sections, br)
		off += int(length)
	}
	r.cursor = make([]int, nsec)
	// Validate directory against section contents.
	counts := make([]int, nsec)
	for _, s := range r.order {
		counts[s]++
	}
	for s, br := range r.sections {
		if br.NumBlocks() != counts[s] {
			return nil, fmt.Errorf("container: section %d holds %d blocks, directory says %d",
				s, br.NumBlocks(), counts[s])
		}
	}
	return r, nil
}

// Blocks returns the total block count.
func (r *Reader) Blocks() int { return len(r.order) }

// GeometryOf returns the geometry of block i (original order).
func (r *Reader) GeometryOf(i int) (Geometry, error) {
	if i < 0 || i >= len(r.order) {
		return Geometry{}, fmt.Errorf("container: block %d out of range", i)
	}
	cfg := r.sections[r.order[i]].Config()
	return Geometry{NumSB: cfg.NumSB, SBSize: cfg.SBSize}, nil
}

// Next decompresses the next block in original order, returning the
// block values and geometry. After the last block it returns nil data.
func (r *Reader) Next() ([]float64, Geometry, error) {
	if r.consumed >= len(r.order) {
		return nil, Geometry{}, nil
	}
	s := r.order[r.consumed]
	br := r.sections[s]
	cfg := br.Config()
	dst := make([]float64, cfg.BlockSize())
	if err := br.ReadBlock(r.cursor[s], dst); err != nil {
		return nil, Geometry{}, err
	}
	r.cursor[s]++
	r.consumed++
	return dst, Geometry{NumSB: cfg.NumSB, SBSize: cfg.SBSize}, nil
}

// Reset rewinds sequential replay.
func (r *Reader) Reset() {
	for i := range r.cursor {
		r.cursor[i] = 0
	}
	r.consumed = 0
}
