package core

import (
	"sync"

	"repro/internal/telemetry"
)

// Pools recycling per-worker kernel state across blocks and calls.
// A BlockEncoder/BlockDecoder owns sizable scratch arenas (pq, sq, the
// ECQ list or arena, pHat, pattern scratch), and every compressed block needs a payload
// buffer; recycling all three means steady-state compression performs
// zero per-block heap allocation (enforced by TestCompressWorkersAllocs
// and TestDecodeBlockAllocs). The arenas adapt to the largest geometry
// seen via reset, so mixed-Config callers share the pools safely.

var encoderPool sync.Pool

// getEncoder returns a pooled encoder reset to cfg, which must already
// be validated (the pool path cannot report a validation error).
func getEncoder(cfg Config) *BlockEncoder {
	if v := encoderPool.Get(); v != nil {
		e := v.(*BlockEncoder)
		e.reset(cfg)
		return e
	}
	e := &BlockEncoder{}
	e.reset(cfg)
	return e
}

// putEncoder returns an encoder to the pool, dropping references the
// pool must not retain (the observer with its request-scoped span, the
// stats sink).
func putEncoder(e *BlockEncoder) {
	e.cfg.Observer = telemetry.Observer{}
	e.stats = nil
	encoderPool.Put(e)
}

var decoderPool sync.Pool

// getDecoder is the decode-side counterpart of getEncoder.
func getDecoder(cfg Config) *BlockDecoder {
	if v := decoderPool.Get(); v != nil {
		d := v.(*BlockDecoder)
		d.reset(cfg)
		return d
	}
	d := &BlockDecoder{}
	d.reset(cfg)
	return d
}

// putDecoder returns a decoder to the pool, dropping the observer and
// the payload its reader points at.
func putDecoder(d *BlockDecoder) {
	d.cfg.Observer = telemetry.Observer{}
	d.r.Reset(nil)
	decoderPool.Put(d)
}

// DecodeBlockBytes decodes one block's payload into dst, which must
// have cfg.BlockSize() values, with a decoder and bit reader from the
// package pool — the pool every geometry shares, so callers that decode
// blocks of many streams keep no decoders of their own. A warm call
// allocates nothing.
func DecodeBlockBytes(cfg Config, payload []byte, dst []float64) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	d := getDecoder(cfg)
	defer putDecoder(d)
	d.r.Reset(payload)
	return d.DecodeBlock(&d.r, dst)
}

// payloadPool recycles per-block payload buffers. Pointers (not slices)
// travel through the pool so a Get/Put cycle allocates nothing once the
// pool is warm; callers append into the pointed-to slice and hand the
// same pointer back via putPayload after the payload has been copied
// into the assembled stream.
var payloadPool sync.Pool

func getPayload() *[]byte {
	if v := payloadPool.Get(); v != nil {
		return v.(*[]byte)
	}
	return new([]byte)
}

func putPayload(p *[]byte) {
	payloadPool.Put(p)
}

// putPayloads returns a whole compression call's payload buffers.
func putPayloads(ps []*[]byte) {
	for _, p := range ps {
		if p != nil {
			putPayload(p)
		}
	}
}
