package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/bitio"
)

// blockSpan locates one block's payload inside a compressed stream.
type blockSpan struct{ lo, hi int }

// scanSpans parses comp's header and walks the per-block uvarint
// length prefixes that follow it. A counted stream yields exactly the
// header's block count, ignoring any bytes after the last block; a
// streamed one (the streamingCount sentinel) runs to the end of comp.
func scanSpans(comp []byte) (Config, []blockSpan, error) {
	cfg, nblocks, off, err := ParseHeader(comp)
	if err != nil {
		return Config{}, nil, err
	}
	var spans []blockSpan
	counted := nblocks != streamingCount
	if counted {
		// Decoding allocates nblocks×BlockSize values in one slice, and
		// every block needs at least its 1-byte length prefix: a corrupt
		// header must not drive a giant allocation.
		if nblocks > uint64(math.MaxInt64)/uint64(cfg.BlockSize()) {
			return Config{}, nil, fmt.Errorf("core: implausible block count %d", nblocks)
		}
		if nblocks > uint64(len(comp)-off) {
			return Config{}, nil, fmt.Errorf("core: header claims %d blocks but only %d bytes follow",
				nblocks, len(comp)-off)
		}
		spans = make([]blockSpan, 0, nblocks)
	}
	for counted && uint64(len(spans)) < nblocks || !counted && off < len(comp) {
		plen, n := binary.Uvarint(comp[off:])
		if n <= 0 {
			return Config{}, nil, fmt.Errorf("core: corrupt block length at offset %d", off)
		}
		off += n
		if uint64(len(comp)-off) < plen {
			return Config{}, nil, fmt.Errorf("core: truncated block %d (want %d bytes, have %d)",
				len(spans), plen, len(comp)-off)
		}
		spans = append(spans, blockSpan{off, off + int(plen)})
		off += int(plen)
	}
	return cfg, spans, nil
}

// BlockReader provides random access to individual blocks of a
// compressed stream without decompressing the rest — possible because
// every PaSTRI block is self-contained (Sec. IV-C). It is not safe for
// concurrent use; create one per goroutine (they can share the same
// underlying stream bytes).
type BlockReader struct {
	cfg    Config
	spans  []blockSpan
	comp   []byte
	dec    *BlockDecoder
	reader *bitio.Reader
}

// NewBlockReader indexes a compressed stream for random access. The
// stream bytes are retained (not copied).
func NewBlockReader(comp []byte) (*BlockReader, error) {
	cfg, spans, err := scanSpans(comp)
	if err != nil {
		return nil, err
	}
	dec, err := NewBlockDecoder(cfg)
	if err != nil {
		return nil, err
	}
	return &BlockReader{
		cfg:    cfg,
		spans:  spans,
		comp:   comp,
		dec:    dec,
		reader: bitio.NewReader(nil),
	}, nil
}

// Config returns the stream's compression configuration.
func (r *BlockReader) Config() Config { return r.cfg }

// NumBlocks returns the number of blocks in the stream.
func (r *BlockReader) NumBlocks() int { return len(r.spans) }

// ReadBlock decompresses block b into dst, which must have
// Config().BlockSize() elements.
func (r *BlockReader) ReadBlock(b int, dst []float64) error {
	if b < 0 || b >= len(r.spans) {
		return fmt.Errorf("core: block index %d out of range [0, %d)", b, len(r.spans))
	}
	r.reader.Reset(r.comp[r.spans[b].lo:r.spans[b].hi])
	if err := r.dec.DecodeBlock(r.reader, dst); err != nil {
		return fmt.Errorf("core: block %d: %w", b, err)
	}
	return nil
}

// CompressedBlockBytes returns the compressed size of block b, for
// storage accounting.
func (r *BlockReader) CompressedBlockBytes(b int) int {
	return r.spans[b].hi - r.spans[b].lo
}

// BlockSpan returns the byte offset and length of block b's payload
// within the stream — the varint length prefix is excluded. External
// block indexes (internal/store) are built from these spans so a block
// can later be fetched with one ReadAt instead of re-scanning the
// stream.
func (r *BlockReader) BlockSpan(b int) (offset, length int, err error) {
	if b < 0 || b >= len(r.spans) {
		return 0, 0, fmt.Errorf("core: block index %d out of range [0, %d)", b, len(r.spans))
	}
	return r.spans[b].lo, r.spans[b].hi - r.spans[b].lo, nil
}
