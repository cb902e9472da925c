package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/bitio"
	"repro/internal/par"
	"repro/internal/telemetry"
)

// Parallel block-compression engine. PaSTRI blocks are self-contained
// (see block.go), so compression is embarrassingly parallel: every
// worker encodes blocks against the same Config with private scratch
// state, and only the assembly into the stream is ordered. Both the
// one-shot path (Compress / CompressWorkers) and the incremental path
// (StreamWriter) are built on that property and produce the same block
// payloads for every worker count — the stream contains no trace of how
// many goroutines built it.

// compressPayloads compresses every block of data (a whole number of
// blocks, pre-validated by the caller) into its own pooled byte buffer,
// fanning out over workers goroutines (see par.Each). payloads[b]
// depends only on the block contents and cfg, never on the worker count
// or schedule. If stats is non-nil, per-worker accumulators are merged
// into it.
//
// Encoders and payload buffers come from the package pools: the caller
// must hand the returned buffers back via putPayloads once their
// contents have been copied out. Steady state does zero per-block heap
// allocation.
//
//pastri:hotpath
func compressPayloads(data []float64, cfg Config, workers int, stats *Stats) ([]*[]byte, error) {
	bs := cfg.BlockSize()
	nblocks := len(data) / bs
	payloads := make([]*[]byte, nblocks) //lint:hotalloc2-ok one slice per call, not per block
	var mu sync.Mutex
	//lint:hotalloc2-ok one worker closure per call, not per block
	err := par.Each(nblocks, workers, func(next func() (int, bool)) (err error) {
		//lint:hotalloc2-ok one label closure per worker, not per block
		cfg.Do(profStageEncode, func() {
			enc := getEncoder(cfg)
			defer putEncoder(enc)
			var local *Stats
			if stats != nil {
				local = NewStats()
				enc.CollectStats(local)
			}
			w := bitio.NewWriter(bs)
			for b, ok := next(); ok; b, ok = next() {
				w.Reset()
				if err = enc.EncodeBlock(w, data[b*bs:(b+1)*bs]); err != nil {
					return
				}
				p := getPayload()
				*p = append((*p)[:0], w.Bytes()...)
				payloads[b] = p
			}
			if local != nil {
				mu.Lock()
				stats.Merge(local)
				mu.Unlock()
			}
		})
		return err
	})
	if err != nil {
		putPayloads(payloads)
		return nil, err
	}
	return payloads, nil
}

// CompressWorkers is Compress with an explicit worker count that
// overrides cfg.Workers (non-positive ⇒ GOMAXPROCS). The output is
// byte-identical to Compress for every worker count.
func CompressWorkers(data []float64, cfg Config, workers int, stats *Stats) ([]byte, error) {
	if workers < 0 {
		workers = 0
	}
	cfg.Workers = workers
	return Compress(data, cfg, stats)
}

// swJob carries one submitted block to a worker; seq is the block's
// position in submission order.
type swJob struct {
	seq  uint64
	data []float64
}

// swResult carries one compressed payload (or the encoder's error)
// back to the sequencer. The payload buffer is pooled: the sequencer
// returns it via putPayload after writing (or discarding) it.
type swResult struct {
	seq     uint64
	payload *[]byte
	err     error
}

// StreamWriter compresses blocks incrementally to an underlying writer,
// fanning the per-block encoding out over a bounded worker pool. A
// sequencer goroutine writes finished payloads strictly in submission
// order, so the produced stream is byte-identical to what Compress
// emits for the same blocks, except that the header carries the
// streaming block-count sentinel — at every worker count.
//
// WriteBlock may return an encoding error on a later call than the
// block that caused it (the pipeline is asynchronous); Close always
// reports the first error in block order. WriteBlock and Close must be
// called from a single goroutine.
type StreamWriter struct {
	w       *bufio.Writer
	cfg     Config
	workers int

	started bool
	closed  bool
	jobs    chan swJob
	results chan swResult
	seqDone chan struct{}
	wg      sync.WaitGroup

	submitted uint64
	written   atomic.Uint64
	failed    atomic.Bool
	errMu     sync.Mutex
	firstErr  error // first error in block order (sequencer) or setup order

	blockPool sync.Pool
}

// NewStreamWriter writes a stream header to w and returns a writer that
// compresses each WriteBlock over cfg.Workers goroutines (0 ⇒
// GOMAXPROCS). The caller must Close it to drain the pipeline and flush
// buffered output.
func NewStreamWriter(w io.Writer, cfg Config) (*StreamWriter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(w)
	hdr := appendHeader(make([]byte, 0, headerSize), cfg, streamingCount)
	if _, err := bw.Write(hdr); err != nil {
		return nil, err
	}
	cfg.Collector.AddFramingBytes(len(hdr))
	return &StreamWriter{
		w:       bw,
		cfg:     cfg,
		workers: par.Workers(cfg.Workers, -1),
	}, nil
}

// start spins up the worker pool and the sequencer. Deferred to the
// first WriteBlock, so a writer that is never written to starts no
// goroutines.
func (s *StreamWriter) start() {
	s.started = true
	s.jobs = make(chan swJob, 2*s.workers)
	s.results = make(chan swResult, 2*s.workers)
	s.seqDone = make(chan struct{})
	for wk := 0; wk < s.workers; wk++ {
		s.wg.Add(1)
		go s.worker()
	}
	go s.sequencer()
}

func (s *StreamWriter) worker() {
	defer s.wg.Done()
	// One label scope per worker lifetime, not per block: CPU samples in
	// the whole encode loop are attributed to tenant×route×stage=encode.
	s.cfg.Do(profStageEncode, s.encodeLoop)
}

func (s *StreamWriter) encodeLoop() {
	enc := getEncoder(s.cfg)
	defer putEncoder(enc)
	bw := bitio.NewWriter(s.cfg.BlockSize())
	for j := range s.jobs {
		if s.failed.Load() {
			// A preceding block already failed; the stream is dead, so
			// skip the encoding work and let the sequencer discard this.
			s.results <- swResult{seq: j.seq, err: errAborted}
			s.blockPool.Put(&j.data)
			continue
		}
		bw.Reset()
		err := enc.EncodeBlock(bw, j.data)
		res := swResult{seq: j.seq, err: err}
		if err == nil {
			p := getPayload()
			*p = append((*p)[:0], bw.Bytes()...)
			res.payload = p
		}
		s.blockPool.Put(&j.data)
		s.results <- res
	}
}

// errAborted marks results that were skipped because an earlier block
// already failed; the sequencer never reports it as the root cause.
var errAborted = fmt.Errorf("core: block skipped after earlier error")

// sequencer writes payloads in submission order, buffering results that
// arrive early. On the first in-order error it stops writing and
// records the error; remaining results are drained and discarded.
// Receive gaps are recorded as sequencer-wait time and the varint+
// payload writes as write time, so a snapshot distinguishes "workers
// can't keep the sequencer fed" from "the sink is slow".
func (s *StreamWriter) sequencer() {
	defer close(s.seqDone)
	s.cfg.Do(profStageSequencer, s.sequence)
}

func (s *StreamWriter) sequence() {
	pending := make(map[uint64]swResult) //lint:hotalloc2-ok one map per stream, not per block; sequence runs once per writer
	var nextSeq uint64
	var lenBuf [binary.MaxVarintLen64]byte
	dead := false
	wait := s.cfg.Stage(telemetry.StageSequencerWait)
	for res := range s.results {
		wait.End()
		pending[res.seq] = res
		for {
			r, ok := pending[nextSeq]
			if !ok {
				break
			}
			delete(pending, nextSeq)
			nextSeq++
			switch {
			case dead:
				// Stream already failed: discard.
			case r.err != nil:
				s.fail(r.err)
				dead = true
			default:
				wt := s.cfg.Stage(telemetry.StageWrite)
				n := binary.PutUvarint(lenBuf[:], uint64(len(*r.payload)))
				if _, err := s.w.Write(lenBuf[:n]); err != nil {
					s.fail(err)
					dead = true
				} else if _, err := s.w.Write(*r.payload); err != nil {
					s.fail(err)
					dead = true
				} else {
					s.cfg.Collector.AddFramingBytes(n)
					s.written.Add(1)
				}
				wt.End()
			}
			// The payload buffer is recycled whether it was written or
			// discarded: bufio.Writer has copied what it needs by now.
			if r.payload != nil {
				putPayload(r.payload)
			}
		}
		wait = s.cfg.Stage(telemetry.StageSequencerWait) //lint:spanend-ok ended on the next receive or by the final End below
	}
	wait.End() // final gap: waiting out the results-channel close
}

// fail records the first error (in block order, since only the
// sequencer calls it for encoding/write failures) and flags the
// pipeline so workers stop encoding.
func (s *StreamWriter) fail(err error) {
	s.errMu.Lock()
	if s.firstErr == nil && err != errAborted {
		s.firstErr = err
	}
	s.errMu.Unlock()
	s.failed.Store(true)
}

func (s *StreamWriter) err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.firstErr
}

// WriteBlock submits one block of Config().BlockSize() values for
// compression. The block is copied, so the caller may reuse it
// immediately. Encoding errors may surface on a later WriteBlock or on
// Close.
func (s *StreamWriter) WriteBlock(block []float64) error {
	if s.closed {
		return fmt.Errorf("core: write on closed StreamWriter")
	}
	if len(block) != s.cfg.BlockSize() {
		return fmt.Errorf("core: block has %d points, config wants %d", len(block), s.cfg.BlockSize())
	}
	if err := s.err(); err != nil {
		return err
	}
	if !s.started {
		s.start()
	}
	split := s.cfg.Stage(telemetry.StageBlockSplit)
	var buf []float64
	if p, ok := s.blockPool.Get().(*[]float64); ok && cap(*p) >= len(block) {
		buf = (*p)[:len(block)]
	} else {
		buf = make([]float64, len(block))
	}
	copy(buf, block)
	s.jobs <- swJob{seq: s.submitted, data: buf}
	s.submitted++
	split.End()
	return nil
}

// Blocks returns the number of blocks fully written to the underlying
// writer so far. It can lag behind the WriteBlock calls until Close;
// after a successful Close it equals the number submitted.
func (s *StreamWriter) Blocks() uint64 { return s.written.Load() }

// Close drains the pipeline, flushes buffered output and returns the
// first error in block order, if any. The underlying writer is not
// closed. Close is idempotent.
func (s *StreamWriter) Close() error {
	if s.closed {
		return s.err()
	}
	s.closed = true
	if s.started {
		close(s.jobs)
		s.wg.Wait()
		close(s.results)
		<-s.seqDone
	}
	if err := s.err(); err != nil {
		return err
	}
	if err := s.w.Flush(); err != nil {
		s.fail(err)
		return err
	}
	return nil
}
