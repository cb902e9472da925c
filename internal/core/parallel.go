package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bitio"
	"repro/internal/telemetry"
)

// Parallel block-compression engine. PaSTRI blocks are self-contained
// (see block.go), so compression is embarrassingly parallel: every
// worker encodes blocks against the same Config with private scratch
// state, and only the assembly into the stream is ordered. Both the
// one-shot path (Compress / CompressWorkers) and the incremental path
// (ParallelStreamWriter) are built on that property and produce output
// byte-identical to the serial encoder for every worker count — the
// stream contains no trace of how many goroutines built it.

// normalizeWorkers resolves a requested worker count: non-positive
// means GOMAXPROCS, and nblocks (when non-negative) caps useful
// parallelism.
func normalizeWorkers(workers, nblocks int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if nblocks >= 0 && workers > nblocks {
		workers = nblocks
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// compressPayloads compresses every block of data (a whole number of
// blocks, pre-validated by the caller) into its own pooled byte buffer,
// fanning out over workers goroutines. payloads[b] depends only on the
// block contents and cfg, never on the worker count or schedule. If
// stats is non-nil, per-worker accumulators are merged into it.
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
	workers = normalizeWorkers(workers, nblocks)

	if workers <= 1 {
		enc := getEncoder(cfg)
		defer putEncoder(enc)
		enc.CollectStats(stats)
		w := bitio.NewWriter(bs)
		for b := 0; b < nblocks; b++ {
			w.Reset()
			if err := enc.EncodeBlock(w, data[b*bs:(b+1)*bs]); err != nil {
				putPayloads(payloads)
				return nil, err
			}
			p := getPayload()
			*p = append((*p)[:0], w.Bytes()...)
			payloads[b] = p
		}
		return payloads, nil
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	split := cfg.Stage(telemetry.StageBlockSplit)
	next := make(chan int, nblocks) //lint:hotalloc2-ok one channel per call, not per block
	for b := 0; b < nblocks; b++ {
		next <- b
	}
	close(next)
	split.End()
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		//lint:hotalloc2-ok one worker closure per goroutine at stream start, not per block
		go func() {
			defer wg.Done()
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
				for b := range next {
					w.Reset()
					if err := enc.EncodeBlock(w, data[b*bs:(b+1)*bs]); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
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
		}()
	}
	wg.Wait()
	if firstErr != nil {
		putPayloads(payloads)
		return nil, firstErr
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

// pswJob carries one submitted block to a worker; seq is the block's
// position in submission order.
type pswJob struct {
	seq  uint64
	data []float64
}

// pswResult carries one compressed payload (or the encoder's error)
// back to the sequencer. The payload buffer is pooled: the sequencer
// returns it via putPayload after writing (or discarding) it.
type pswResult struct {
	seq     uint64
	payload *[]byte
	err     error
}

// ParallelStreamWriter compresses blocks incrementally like
// StreamWriter, but fans the per-block encoding out over a bounded
// worker pool. A sequencer goroutine writes finished payloads to the
// underlying writer strictly in submission order, so the produced
// stream is byte-identical to what StreamWriter emits for the same
// blocks — same header, same block order, no reordering.
//
// WriteBlock may return an encoding error on a later call than the
// block that caused it (the pipeline is asynchronous); Close always
// reports the first error in block order. WriteBlock and Close must be
// called from a single goroutine.
type ParallelStreamWriter struct {
	w       *bufio.Writer
	cfg     Config
	workers int

	started bool
	closed  bool
	jobs    chan pswJob
	results chan pswResult
	seqDone chan struct{}
	wg      sync.WaitGroup

	submitted uint64
	written   atomic.Uint64
	failed    atomic.Bool
	errMu     sync.Mutex
	firstErr  error // first error in block order (sequencer) or setup order

	stats       *Stats
	workerStats []*Stats

	blockPool sync.Pool
}

// NewParallelStreamWriter writes a stream header to w and returns a
// writer that compresses each WriteBlock over a pool of workers
// goroutines (non-positive ⇒ GOMAXPROCS). The caller must Close it to
// drain the pipeline and flush buffered output.
func NewParallelStreamWriter(w io.Writer, cfg Config, workers int) (*ParallelStreamWriter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(w)
	hdr := appendHeader(make([]byte, 0, headerSize), cfg, streamingCount)
	if _, err := bw.Write(hdr); err != nil {
		return nil, err
	}
	cfg.Collector.AddFramingBytes(len(hdr))
	return &ParallelStreamWriter{
		w:       bw,
		cfg:     cfg,
		workers: normalizeWorkers(workers, -1),
	}, nil
}

// CollectStats attaches a statistics sink. It must be called before the
// first WriteBlock; later calls are ignored.
func (s *ParallelStreamWriter) CollectStats(st *Stats) {
	if !s.started {
		s.stats = st
	}
}

// start spins up the worker pool and the sequencer. Deferred to the
// first WriteBlock so CollectStats can attach beforehand.
func (s *ParallelStreamWriter) start() {
	s.started = true
	s.jobs = make(chan pswJob, 2*s.workers)
	s.results = make(chan pswResult, 2*s.workers)
	s.seqDone = make(chan struct{})
	for wk := 0; wk < s.workers; wk++ {
		var local *Stats
		if s.stats != nil {
			local = NewStats()
			s.workerStats = append(s.workerStats, local)
		}
		s.wg.Add(1)
		go s.worker(local)
	}
	go s.sequencer()
}

func (s *ParallelStreamWriter) worker(local *Stats) {
	defer s.wg.Done()
	// One label scope per worker lifetime, not per block: CPU samples in
	// the whole encode loop are attributed to tenant×route×stage=encode.
	s.cfg.Do(profStageEncode, func() { s.encodeLoop(local) })
}

func (s *ParallelStreamWriter) encodeLoop(local *Stats) {
	enc := getEncoder(s.cfg)
	defer putEncoder(enc)
	enc.CollectStats(local)
	bw := bitio.NewWriter(s.cfg.BlockSize())
	for j := range s.jobs {
		if s.failed.Load() {
			// A preceding block already failed; the stream is dead, so
			// skip the encoding work and let the sequencer discard this.
			s.results <- pswResult{seq: j.seq, err: errAborted}
			s.blockPool.Put(&j.data)
			continue
		}
		bw.Reset()
		err := enc.EncodeBlock(bw, j.data)
		res := pswResult{seq: j.seq, err: err}
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
func (s *ParallelStreamWriter) sequencer() {
	defer close(s.seqDone)
	s.cfg.Do(profStageSequencer, s.sequence)
}

func (s *ParallelStreamWriter) sequence() {
	pending := make(map[uint64]pswResult) //lint:hotalloc2-ok one map per stream, not per block; sequence runs once per writer
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
func (s *ParallelStreamWriter) fail(err error) {
	s.errMu.Lock()
	if s.firstErr == nil && err != errAborted {
		s.firstErr = err
	}
	s.errMu.Unlock()
	s.failed.Store(true)
}

func (s *ParallelStreamWriter) err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.firstErr
}

// WriteBlock submits one block of Config().BlockSize() values for
// compression. The block is copied, so the caller may reuse it
// immediately. Encoding errors may surface on a later WriteBlock or on
// Close.
func (s *ParallelStreamWriter) WriteBlock(block []float64) error {
	if s.closed {
		return fmt.Errorf("core: write on closed ParallelStreamWriter")
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
	s.jobs <- pswJob{seq: s.submitted, data: buf}
	s.submitted++
	split.End()
	return nil
}

// Blocks returns the number of blocks fully written to the underlying
// writer so far; after a successful Close it equals the number
// submitted.
func (s *ParallelStreamWriter) Blocks() uint64 { return s.written.Load() }

// Close drains the pipeline, flushes buffered output and returns the
// first error in block order, if any. The underlying writer is not
// closed. Close is idempotent.
func (s *ParallelStreamWriter) Close() error {
	if s.closed {
		return s.err()
	}
	s.closed = true
	if s.started {
		close(s.jobs)
		s.wg.Wait()
		close(s.results)
		<-s.seqDone
		// Merge per-worker stats in worker order for a deterministic
		// (order-independent anyway — Stats is pure counters) result.
		for _, ws := range s.workerStats {
			s.stats.Merge(ws)
		}
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
