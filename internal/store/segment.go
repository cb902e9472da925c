package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"os"
	"sync"

	"repro/internal/core"
	"repro/internal/telemetry/trace"
)

// Block index format (".idx", all little-endian):
//
//	magic    [4]byte  "PIDX"
//	version  uint8    1
//	reserved [3]byte  0
//	segLen   uint64   committed segment size in bytes
//	segCRC   uint32   CRC-32 (IEEE) of the whole segment
//	nblocks  uint64
//	nblocks × {
//	    off  uint64   payload offset within the segment
//	    len  uint32   payload length (varint prefix excluded)
//	    crc  uint32   CRC-32 (IEEE) of the payload bytes
//	}
//	idxCRC   uint32   CRC-32 (IEEE) of every preceding index byte
//
// The index is pure derived data — rebuildable from the segment — but
// it is what makes one-ReadAt block serving possible, and its triple
// checksum layering (index CRC, segment CRC, per-block CRC) is what
// lets the store promise "typed error or correct bytes, never wrong
// data".

var idxMagic = [4]byte{'P', 'I', 'D', 'X'}

const (
	idxVersion    = 1
	idxHeaderSize = 4 + 1 + 3 + 8 + 4 + 8
	idxEntrySize  = 8 + 4 + 4
)

// maxIndexBlocks bounds how many block entries an index may declare,
// so a corrupt count cannot drive a giant allocation before the CRC
// check gets a chance to reject the file.
const maxIndexBlocks = 1 << 28

// blockLoc is one decoded index entry.
type blockLoc struct {
	off uint64
	n   uint32
	crc uint32
}

// buildIndex scans a committed segment and serializes its block index.
// The segment must parse as a complete PaSTRI stream; anything else is
// reported as ErrCorrupt (the upload was torn or the encoder lied).
func buildIndex(seg []byte) ([]byte, error) {
	br, err := core.NewBlockReader(seg)
	if err != nil {
		return nil, fmt.Errorf("store: segment does not parse: %v: %w", err, ErrCorrupt)
	}
	n := br.NumBlocks()
	out := make([]byte, 0, idxHeaderSize+n*idxEntrySize+4)
	out = append(out, idxMagic[:]...)
	out = append(out, idxVersion, 0, 0, 0)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(seg)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(seg))
	out = binary.LittleEndian.AppendUint64(out, uint64(n))
	for b := 0; b < n; b++ {
		off, length, err := br.BlockSpan(b)
		if err != nil {
			return nil, fmt.Errorf("store: indexing block %d: %v: %w", b, err, ErrCorrupt)
		}
		out = binary.LittleEndian.AppendUint64(out, uint64(off))
		out = binary.LittleEndian.AppendUint32(out, uint32(length))
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(seg[off:off+length]))
	}
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	return out, nil
}

// parseIndex validates an index file and returns the segment length,
// segment CRC and block locations.
func parseIndex(idx []byte) (segLen uint64, segCRC uint32, blocks []blockLoc, err error) {
	if len(idx) < idxHeaderSize+4 {
		return 0, 0, nil, fmt.Errorf("store: index truncated to %d bytes: %w", len(idx), ErrCorrupt)
	}
	if [4]byte(idx[:4]) != idxMagic {
		return 0, 0, nil, fmt.Errorf("store: bad index magic %q: %w", idx[:4], ErrCorrupt)
	}
	if idx[4] != idxVersion {
		return 0, 0, nil, fmt.Errorf("store: unsupported index version %d: %w", idx[4], ErrCorrupt)
	}
	segLen = binary.LittleEndian.Uint64(idx[8:16])
	segCRC = binary.LittleEndian.Uint32(idx[16:20])
	nblocks := binary.LittleEndian.Uint64(idx[20:28])
	if nblocks > maxIndexBlocks {
		return 0, 0, nil, fmt.Errorf("store: implausible index block count %d: %w", nblocks, ErrCorrupt)
	}
	want := idxHeaderSize + int(nblocks)*idxEntrySize + 4
	if len(idx) != want {
		return 0, 0, nil, fmt.Errorf("store: index is %d bytes, %d blocks need %d: %w",
			len(idx), nblocks, want, ErrCorrupt)
	}
	body := idx[:len(idx)-4]
	if got, rec := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(idx[len(idx)-4:]); got != rec {
		return 0, 0, nil, fmt.Errorf("store: index checksum mismatch (got %08x, recorded %08x): %w",
			got, rec, ErrCorrupt)
	}
	blocks = make([]blockLoc, nblocks)
	for b := range blocks {
		e := idx[idxHeaderSize+b*idxEntrySize:]
		blocks[b] = blockLoc{
			off: binary.LittleEndian.Uint64(e[0:8]),
			n:   binary.LittleEndian.Uint32(e[8:12]),
			crc: binary.LittleEndian.Uint32(e[12:16]),
		}
		end := blocks[b].off + uint64(blocks[b].n)
		if end < blocks[b].off || end > segLen {
			return 0, 0, nil, fmt.Errorf("store: block %d span [%d,%d) outside %d-byte segment: %w",
				b, blocks[b].off, end, segLen, ErrCorrupt)
		}
	}
	return segLen, segCRC, blocks, nil
}

// Segment is an open, validated stream: an os.File served by ReadAt
// plus the decoded block index. All methods are safe for concurrent
// use. Blocks decode through core's shared decoder pool, with payload
// scratch from payloadBufs, so an open segment holds no decoder.
type Segment struct {
	f      *os.File
	cfg    core.Config
	size   int64
	blocks []blockLoc
}

// payloadBufs recycles block payload scratch across every segment.
var payloadBufs sync.Pool // *[]byte

// openSegment validates the (segment, index) pair: index checksum and
// bounds, segment size and whole-file CRC, and a parseable stream
// header whose geometry the decoder accepts. The segment is opened
// once: the bytes checked are read through the handle the Segment
// keeps, so it serves the file it verified. An open segment can then
// serve blocks with one ReadAt each.
func openSegment(segPath, idxPath string) (_ *Segment, err error) {
	idxBytes, err := os.ReadFile(idxPath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("store: %s: %w", idxPath, ErrNotFound)
		}
		return nil, fmt.Errorf("store: reading index: %w", err)
	}
	segLen, segCRC, blocks, err := parseIndex(idxBytes)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(segPath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("store: %s: %w", segPath, ErrNotFound)
		}
		return nil, fmt.Errorf("store: opening segment: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close() //lint:errdrop-ok already failing; the open error wins
		}
	}()
	// Size the read from the file, as os.ReadFile does, not from the
	// length the index records.
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: reading segment: %w", err)
	}
	segBytes := make([]byte, fi.Size())
	if _, err := f.ReadAt(segBytes, 0); err != nil {
		return nil, fmt.Errorf("store: reading segment: %w", err)
	}
	if uint64(len(segBytes)) != segLen {
		return nil, fmt.Errorf("store: segment is %d bytes, index recorded %d: %w",
			len(segBytes), segLen, ErrCorrupt)
	}
	if got := crc32.ChecksumIEEE(segBytes); got != segCRC {
		return nil, fmt.Errorf("store: segment checksum mismatch (got %08x, recorded %08x): %w",
			got, segCRC, ErrCorrupt)
	}
	cfg, _, _, err := core.ParseHeader(segBytes)
	if err != nil {
		return nil, fmt.Errorf("store: segment header: %v: %w", err, ErrCorrupt)
	}
	if len(blocks) > 0 {
		// The index and the stream must agree on where blocks live.
		br, err := core.NewBlockReader(segBytes)
		if err != nil {
			return nil, fmt.Errorf("store: segment blocks: %v: %w", err, ErrCorrupt)
		}
		if br.NumBlocks() != len(blocks) {
			return nil, fmt.Errorf("store: stream has %d blocks, index %d: %w",
				br.NumBlocks(), len(blocks), ErrCorrupt)
		}
	}
	return &Segment{
		f:      f,
		cfg:    cfg,
		size:   int64(segLen),
		blocks: blocks,
	}, nil
}

// Config returns the stream's compression configuration.
func (g *Segment) Config() core.Config { return g.cfg }

// NumBlocks returns the number of stored blocks.
func (g *Segment) NumBlocks() int { return len(g.blocks) }

// BlockSize returns the number of float64 values per block.
func (g *Segment) BlockSize() int { return g.cfg.BlockSize() }

// SegmentBytes returns the on-disk compressed stream size.
func (g *Segment) SegmentBytes() int64 { return g.size }

// CompressedBlockBytes returns the stored payload size of block b, or
// 0 when b is out of range.
func (g *Segment) CompressedBlockBytes(b int) int {
	if b < 0 || b >= len(g.blocks) {
		return 0
	}
	return int(g.blocks[b].n)
}

// ReadBlock fetches block b with one ReadAt, re-verifies its payload
// checksum, and decodes it into dst (BlockSize() values), recording
// store.read_at and store.decode child spans under parent (typically
// the request's cache.fill span). A nil parent disables the spans at
// the cost of one branch each. Safe for concurrent use.
func (g *Segment) ReadBlock(b int, dst []float64, parent *trace.Span) error {
	if b < 0 || b >= len(g.blocks) {
		return fmt.Errorf("store: block %d out of range [0, %d): %w", b, len(g.blocks), ErrNotFound)
	}
	if len(dst) != g.cfg.BlockSize() {
		return fmt.Errorf("store: destination has %d values, block has %d", len(dst), g.cfg.BlockSize())
	}
	loc := g.blocks[b]
	bufp, _ := payloadBufs.Get().(*[]byte)
	if bufp == nil || cap(*bufp) < int(loc.n) {
		buf := make([]byte, loc.n)
		bufp = &buf
	}
	defer payloadBufs.Put(bufp)
	buf := (*bufp)[:loc.n]
	rsp := parent.StartChild("store.read_at")
	_, err := g.f.ReadAt(buf, int64(loc.off))
	rsp.End()
	if err != nil {
		return fmt.Errorf("store: reading block %d: %v: %w", b, err, ErrCorrupt)
	}
	if got := crc32.ChecksumIEEE(buf); got != loc.crc {
		return fmt.Errorf("store: block %d checksum mismatch (got %08x, recorded %08x): %w",
			b, got, loc.crc, ErrCorrupt)
	}
	dsp := parent.StartChild("store.decode")
	err = core.DecodeBlockBytes(g.cfg, buf, dst)
	dsp.End()
	if err != nil {
		return fmt.Errorf("store: decoding block %d: %v: %w", b, err, ErrCorrupt)
	}
	return nil
}

// close releases the underlying file handle.
func (g *Segment) close() error { return g.f.Close() }
