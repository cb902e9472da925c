package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/bitio"
)

// Streaming interface: compress (StreamWriter, parallel.go) or
// decompress block-by-block against an io.Writer/io.Reader without
// materializing the whole dataset. A streamed file uses the same format
// as Compress with the block count set to the streamingCount sentinel;
// the block sequence then runs to EOF. Decompress and BlockReader
// accept both forms.

// streamingCount marks a header whose block count was unknown at write
// time.
const streamingCount = ^uint64(0)

// StreamReader decompresses blocks incrementally from an underlying
// reader. Not safe for concurrent use.
type StreamReader struct {
	r     *bufio.Reader
	cfg   Config
	dec   *BlockDecoder
	br    *bitio.Reader
	buf   []byte
	total uint64 // expected blocks; streamingCount if unknown
	read  uint64
}

// NewStreamReader parses the stream header from r and prepares
// block-by-block reads.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("core: reading stream header: %w", err)
	}
	cfg, nblocks, _, err := ParseHeader(hdr)
	if err != nil {
		return nil, err
	}
	dec, err := NewBlockDecoder(cfg)
	if err != nil {
		return nil, err
	}
	return &StreamReader{
		r:     br,
		cfg:   cfg,
		dec:   dec,
		br:    bitio.NewReader(nil),
		total: nblocks,
	}, nil
}

// Config returns the stream's compression configuration.
func (s *StreamReader) Config() Config { return s.cfg }

// ReadBlock decompresses the next block into dst (Config().BlockSize()
// values). It returns io.EOF after the last block.
func (s *StreamReader) ReadBlock(dst []float64) error {
	if s.total != streamingCount && s.read >= s.total {
		return io.EOF
	}
	plen, err := binary.ReadUvarint(s.r)
	if err != nil {
		if err == io.EOF && s.total == streamingCount {
			return io.EOF
		}
		return fmt.Errorf("core: reading block length: %w", err)
	}
	if plen > 1<<32 {
		return fmt.Errorf("core: implausible block payload %d bytes", plen)
	}
	if uint64(cap(s.buf)) < plen {
		s.buf = make([]byte, plen)
	}
	buf := s.buf[:plen]
	if _, err := io.ReadFull(s.r, buf); err != nil {
		return fmt.Errorf("core: reading block payload: %w", err)
	}
	s.br.Reset(buf)
	if err := s.dec.DecodeBlock(s.br, dst); err != nil {
		return err
	}
	s.read++
	return nil
}

// BlocksRead returns the number of blocks decoded so far.
func (s *StreamReader) BlocksRead() uint64 { return s.read }
