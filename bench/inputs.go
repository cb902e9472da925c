package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eri"
)

// errorBound is the absolute bound every workload compresses at: the
// GAMESS requirement the paper targets and pastrid's default.
const errorBound = 1e-10

// loadDatasets returns the paper's ERI datasets of shell class l for
// each molecule. They come from the on-disk dataset cache, generated
// once per checkout; loading them is outside every timed metric.
func loadDatasets(molecules []string, l, blocks int) ([]*eri.Dataset, error) {
	var out []*eri.Dataset
	for _, m := range molecules {
		ds, err := dataset.Get(dataset.Spec{Molecule: m, L: l, MaxBlocks: blocks})
		if err != nil {
			return nil, fmt.Errorf("dataset %s l=%d: %w", m, l, err)
		}
		out = append(out, ds)
	}
	return out, nil
}

// pool is the set of real (dd|dd) blocks the service workloads build
// their streams from, with the serial oracle for each. PaSTRI blocks
// are compressed independently, so one oracle per pooled block serves
// every stream the block appears in.
type pool struct {
	cfg    core.Config
	header int      // bytes of core's stream header ahead of the first block
	raw    [][]byte // little-endian float64 bytes, as uploaded
	oracle [][]byte // serial compress→decompress of the block, as a read must return it
	framed []int    // serial compressed bytes of the block including its length prefix
	bySize []int    // pool indices ordered by compressed size, for stratified picks
}

// newPool computes the oracle for every block of sets, which must all
// share one geometry.
func newPool(sets []*eri.Dataset) (*pool, error) {
	p := &pool{cfg: core.Defaults(sets[0].NumSB, sets[0].SBSize, errorBound)}
	p.cfg.Workers = 1
	maxErr := core.MaxBlockError(p.cfg)
	for _, ds := range sets {
		for b := range ds.Blocks {
			block := ds.Block(b)
			comp, err := core.Compress(block, p.cfg, nil)
			if err != nil {
				return nil, fmt.Errorf("oracle: compressing %s block %d: %w", ds.Name, b, err)
			}
			dec, err := core.Decompress(comp, 1)
			if err != nil {
				return nil, fmt.Errorf("oracle: decompressing %s block %d: %w", ds.Name, b, err)
			}
			if i := boundViolation(block, dec, maxErr); i >= 0 {
				return nil, fmt.Errorf("oracle: %s block %d value %d: |%g - %g| exceeds the error bound %g",
					ds.Name, b, i, dec[i], block[i], errorBound)
			}
			_, _, off, err := core.ParseHeader(comp)
			if err != nil {
				return nil, fmt.Errorf("oracle: %s block %d: %w", ds.Name, b, err)
			}
			p.header = off
			p.raw = append(p.raw, leBytes(block))
			p.oracle = append(p.oracle, leBytes(dec))
			p.framed = append(p.framed, len(comp)-off)
		}
	}
	p.bySize = make([]int, len(p.raw))
	for i := range p.bySize {
		p.bySize[i] = i
	}
	slices.SortStableFunc(p.bySize, func(a, b int) int { return p.framed[a] - p.framed[b] })
	return p, nil
}

// blockBytes is the raw (and decoded) size of one pooled block.
func (p *pool) blockBytes() int { return p.cfg.BlockSize() * 8 }

// pick returns n pool indices in seeded random order: whole copies of
// the pool, then one seeded pick from each of n%len equal-width strata
// of the pool ordered by compressed size. Every seed therefore gets
// nearly the same mix of easy and hard blocks, which keeps the stored
// ratio and the per-stream work steady across seeds.
func (p *pool) pick(rng *rand.Rand, n int) []int {
	size := len(p.bySize)
	out := make([]int, 0, n)
	for range n / size {
		out = append(out, p.bySize...)
	}
	rem := n % size
	for i := range rem {
		lo, hi := i*size/rem, (i+1)*size/rem
		out = append(out, p.bySize[lo+rng.IntN(hi-lo)])
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// stream is one uploaded stream: its id and the pooled blocks it holds,
// in order.
type stream struct {
	id     string
	blocks []int
}

// composeStreams draws count streams of blocks blocks each.
func (p *pool) composeStreams(rng *rand.Rand, prefix string, count, blocks int) []stream {
	picks := p.pick(rng, count*blocks)
	out := make([]stream, count)
	for i := range out {
		out[i] = stream{id: fmt.Sprintf("%s%d", prefix, i), blocks: picks[i*blocks : (i+1)*blocks]}
	}
	return out
}

// appendBody appends the upload body of s, its raw blocks back to
// back, to dst.
func (p *pool) appendBody(dst []byte, s stream) []byte {
	for _, b := range s.blocks {
		dst = append(dst, p.raw[b]...)
	}
	return dst
}

// storedBytes is the size of the serial compression of s, which pastrid
// must store byte for byte.
func (p *pool) storedBytes(s stream) int64 {
	n := int64(p.header)
	for _, b := range s.blocks {
		n += int64(p.framed[b])
	}
	return n
}

// leBytes encodes values as little-endian float64, pastrid's wire form.
func leBytes(values []float64) []byte {
	out := make([]byte, len(values)*8)
	for i, v := range values {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

// decodeLE is the inverse of leBytes.
func decodeLE(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// boundViolation returns the index of the first value of got farther
// than maxErr from want, or -1.
func boundViolation(want, got []float64, maxErr float64) int {
	if len(want) != len(got) {
		return 0
	}
	for i := range want {
		if !(math.Abs(got[i]-want[i]) <= maxErr) {
			return i
		}
	}
	return -1
}
