package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/eri"
)

// codecStream is one in-process stream of the codec workload: seeded
// blocks of one shell class back to back, as a chemistry code would
// hand them to the library.
type codecStream struct {
	class string // "dd" or "ff"
	cfg   core.Config
	data  []float64
	ref   []byte // the first pass's compressed bytes; later passes must match
}

// codecSet is the codec workload's input: the datasets and a seeded
// split of their blocks into streams.
type codecSet struct {
	rc      *runCtx
	sets    map[string][]*eri.Dataset
	streams []*codecStream
	passes  int // passes run, to seed each pass's order
}

func newCodecSet(rc *runCtx) (*codecSet, error) {
	cs := &codecSet{rc: rc, sets: make(map[string][]*eri.Dataset)}
	for _, c := range []struct {
		class     string
		l, blocks int
	}{{"dd", 2, rc.sz.ddBlocks}, {"ff", 3, rc.sz.ffBlocks}} {
		sets, err := loadDatasets(rc.sz.molecules, c.l, c.blocks)
		if err != nil {
			return nil, err
		}
		rc.noteDatasets("codec", sets)
		cs.sets[c.class] = sets
		for _, ds := range sets {
			rc.prov.Blocks += ds.Blocks
		}
	}
	return cs, nil
}

// assemble copies the blocks into freshly allocated streams: each
// class's blocks in seeded order, split into streams of the class's
// stream length.
func (cs *codecSet) assemble() {
	rng := cs.rc.rng(rngStreams, 0)
	cs.streams = nil
	for _, class := range []string{"dd", "ff"} {
		sets := cs.sets[class]
		per := cs.rc.sz.ddStream
		if class == "ff" {
			per = cs.rc.sz.ffStream
		}
		type ref struct{ ds, b int }
		var all []ref
		for i, ds := range sets {
			for b := range ds.Blocks {
				all = append(all, ref{i, b})
			}
		}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		cfg := core.Defaults(sets[0].NumSB, sets[0].SBSize, errorBound)
		for lo := 0; lo+per <= len(all); lo += per {
			st := &codecStream{class: class, cfg: cfg, data: make([]float64, 0, per*cfg.BlockSize())}
			for _, r := range all[lo : lo+per] {
				st.data = append(st.data, sets[r.ds].Block(r.b)...)
			}
			cs.streams = append(cs.streams, st)
		}
	}
}

// roundTrip compresses st with CompressWorkers and decompresses it with
// Decompress, both with workers goroutines, then checks every value
// against the error bound and the compressed bytes against the first
// pass. A check failure is counted, not returned.
func (cs *codecSet) roundTrip(st *codecStream, workers int) (tc, td time.Duration, compBytes int, err error) {
	t0 := time.Now()
	comp, err := core.CompressWorkers(st.data, st.cfg, workers, nil)
	tc = time.Since(t0)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("compress: %w", err)
	}
	t1 := time.Now()
	dec, err := core.Decompress(comp, workers)
	td = time.Since(t1)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("decompress: %w", err)
	}
	switch i := boundViolation(st.data, dec, core.MaxBlockError(st.cfg)); {
	case i >= 0:
		cs.rc.tally.fail(fmt.Sprintf("codec %s stream: value %d decompressed to %g, original %g, outside the error bound %g",
			st.class, i, dec[i], st.data[i], errorBound))
	case st.ref != nil && !bytes.Equal(comp, st.ref):
		cs.rc.tally.fail(fmt.Sprintf("codec %s stream: compressed bytes differ between passes", st.class))
	default:
		cs.rc.tally.ok()
	}
	if st.ref == nil {
		st.ref = comp
	}
	return tc, td, len(comp), nil
}

// codecPhase is the outcome of round trips over the streams.
type codecPhase struct {
	tc, td    samples
	rt        scaled // whole round trips
	raw, comp int64
}

func (p *codecPhase) merge(q codecPhase) {
	p.tc = append(p.tc, q.tc...)
	p.td = append(p.td, q.td...)
	p.rt.raw = append(p.rt.raw, q.rt.raw...)
	p.raw += q.raw
	p.comp += q.comp
}

func (p codecPhase) compressMBps() float64   { return float64(p.raw) / 1e6 / p.tc.total().Seconds() }
func (p codecPhase) decompressMBps() float64 { return float64(p.raw) / 1e6 / p.td.total().Seconds() }

// pass runs one round trip of every stream, in a fresh seeded order.
func (cs *codecSet) pass(workers int) (codecPhase, error) {
	var ph codecPhase
	cs.passes++
	for _, i := range cs.rc.rng(rngSchedule, cs.passes).Perm(len(cs.streams)) {
		st := cs.streams[i]
		tc, td, n, err := cs.roundTrip(st, workers)
		if err != nil {
			return ph, err
		}
		ph.tc = append(ph.tc, tc)
		ph.td = append(ph.td, td)
		ph.rt.raw = append(ph.rt.raw, tc+td)
		ph.raw += int64(len(st.data) * 8)
		ph.comp += int64(n)
	}
	return ph, nil
}

// loop runs passes, one with each of the worker counts in turn, until
// dur has passed, and returns the merged outcome per worker count.
// Alternating the counts pass by pass exposes them to the same machine
// conditions. The host-speed reference is sampled after each slice of
// load and after the last pass.
func (cs *codecSet) loop(name string, dur time.Duration, workers ...int) ([]codecPhase, error) {
	out := make([]codecPhase, len(workers))
	settle := func() {
		slow := cs.rc.speed.sample(nil)
		for i := range out {
			out[i].rt.settle(slow)
		}
	}
	start := time.Now()
	for ops := 0; ; {
		for i, w := range workers {
			ph, err := cs.pass(w)
			if err != nil {
				return nil, err
			}
			out[i].merge(ph)
			ops += len(ph.rt.raw)
			if time.Since(cs.rc.speed.last) >= loadSlice {
				settle()
			}
		}
		if time.Since(start) >= dur || cs.rc.ctx.Err() != nil {
			settle()
			cs.rc.phase(name, start, ops, 0)
			return out, nil
		}
	}
}

// runCodec is the codec workload: the library path, in process, with
// no HTTP, cache, store or telemetry.
func runCodec(rc *runCtx) error {
	cs, err := newCodecSet(rc)
	if err != nil {
		return err
	}
	if rc.trace {
		err = cs.traced()
	} else {
		err = cs.measure()
	}
	if err != nil {
		return err
	}
	rss, err := vmHWM(os.Getpid())
	if err != nil {
		return err
	}
	rc.set("peak_rss_mb", rss, "MB", 1)
	return nil
}

// measure is the untimed set-up (corpus assembly plus a cold-start pass,
// repeated) followed by round trips for the run's duration.
func (cs *codecSet) measure() error {
	rc := cs.rc
	var setups scaled
	var first codecPhase
	for range rc.sz.setupRepeats {
		t0 := time.Now()
		cs.assemble()
		ph, err := cs.pass(0)
		if err != nil {
			return err
		}
		setups.raw = append(setups.raw, time.Since(t0))
		rc.phase("setup", t0, len(ph.rt.raw), 0)
		first = ph
		setups.settle(rc.speed.sample(nil))
	}
	rc.setSetup(setups)
	rc.set("ratio", float64(first.raw)/float64(first.comp), "x", len(first.rt.raw))

	phs, err := cs.loop("round_trips", rc.dur, 0)
	if err != nil {
		return err
	}
	ph := phs[0]
	rc.setRate(ph.raw, ph.rt)
	rc.setLatencies(ph.rt)
	rc.set("compress_mbps", ph.compressMBps(), "MB/s", len(ph.tc))
	rc.set("decompress_mbps", ph.decompressMBps(), "MB/s", len(ph.td))
	return nil
}

// traced splits the run between round trips that alternate GOMAXPROCS
// workers with one worker, and per-block EncodeBlock/DecodeBlock passes
// that alternate timing every call with timing only the pass, whose
// rates give the cost of the per-block timing itself. The first timed
// pass's calls go to the Perfetto file.
func (cs *codecSet) traced() error {
	rc := cs.rc
	cs.assemble()
	if _, err := cs.pass(0); err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)
	phs, err := cs.loop("round_trips", rc.dur/2, workers, 1)
	if err != nil {
		return err
	}
	par, one := phs[0], phs[1]
	rc.set("core.compress_mbps", par.compressMBps(), "MB/s", len(par.tc))
	rc.set("core.decompress_mbps", par.decompressMBps(), "MB/s", len(par.td))
	rc.set("core.compress_mbps_1w", one.compressMBps(), "MB/s", len(one.tc))
	rc.set("core.decompress_mbps_1w", one.decompressMBps(), "MB/s", len(one.td))
	rc.set("core.parallel_efficiency.compress", par.compressMBps()/(float64(workers)*one.compressMBps()), "share", workers)
	rc.set("core.parallel_efficiency.decompress", par.decompressMBps()/(float64(workers)*one.decompressMBps()), "share", workers)

	enc := map[string]samples{}
	dec := map[string]samples{}
	lg := newLedger()
	export := lg
	var timedWall, plainWall time.Duration
	var timedBlocks, plainBlocks int
	start := time.Now()
	for deadline := start.Add(rc.dur / 2); time.Now().Before(deadline) && rc.ctx.Err() == nil; {
		for _, timed := range []bool{true, false} {
			var spans *ledger
			if timed {
				spans, export = export, nil
			}
			n, wall, err := cs.blockPass(timed, enc, dec, spans)
			if err != nil {
				return err
			}
			if timed {
				timedBlocks, timedWall = timedBlocks+n, timedWall+wall
			} else {
				plainBlocks, plainWall = plainBlocks+n, plainWall+wall
			}
		}
	}
	rc.phase("block_passes", start, timedBlocks+plainBlocks, 0)
	for _, class := range []string{"dd", "ff"} {
		rc.set("core.encode_block_us."+class, enc[class].us(0.5), "us", len(enc[class]))
		rc.set("core.decode_block_us."+class, dec[class].us(0.5), "us", len(dec[class]))
	}
	timedRate := float64(timedBlocks) / timedWall.Seconds()
	plainRate := float64(plainBlocks) / plainWall.Seconds()
	rc.set("trace.overhead_share", 1-timedRate/plainRate, "share", 2)
	return rc.writePerfetto(lg)
}

// blockPass encodes and decodes every block of every stream serially
// through the public per-block API, checking each against the error
// bound. With timed set, each EncodeBlock and DecodeBlock call is timed
// into enc/dec by class, and with lg non-nil also exported as a span,
// one request per stream. It returns the blocks processed and the pass's
// wall time.
func (cs *codecSet) blockPass(timed bool, enc, dec map[string]samples, lg *ledger) (int, time.Duration, error) {
	blocks := 0
	start := time.Now()
	for si, st := range cs.streams {
		var req *request
		if lg != nil {
			id := fmt.Sprintf("%s-stream-%d", st.class, si)
			req = &request{kind: "codec", rt: &reqTrace{traceID: id}, client: span{name: st.class + " stream", id: id, start: time.Now().UnixNano()}}
		}
		call := func(name string, t0 time.Time, d time.Duration) {
			if req != nil {
				req.spans = append(req.spans, span{name: name, id: strconv.Itoa(len(req.spans)), parent: req.client.id,
					start: t0.UnixNano(), end: t0.Add(d).UnixNano()})
			}
		}
		e, err := core.NewBlockEncoder(st.cfg)
		if err != nil {
			return 0, 0, err
		}
		d, err := core.NewBlockDecoder(st.cfg)
		if err != nil {
			return 0, 0, err
		}
		bs := st.cfg.BlockSize()
		w := bitio.NewWriter(bs)
		r := bitio.NewReader(nil)
		dst := make([]float64, bs)
		maxErr := core.MaxBlockError(st.cfg)
		for lo := 0; lo < len(st.data); lo += bs {
			block := st.data[lo : lo+bs]
			w.Reset()
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			if err := e.EncodeBlock(w, block); err != nil {
				return 0, 0, fmt.Errorf("EncodeBlock: %w", err)
			}
			if timed {
				d := time.Since(t0)
				enc[st.class] = append(enc[st.class], d)
				call("EncodeBlock", t0, d)
			}
			r.Reset(w.Bytes())
			if timed {
				t0 = time.Now()
			}
			if err := d.DecodeBlock(r, dst); err != nil {
				return 0, 0, fmt.Errorf("DecodeBlock: %w", err)
			}
			if timed {
				d := time.Since(t0)
				dec[st.class] = append(dec[st.class], d)
				call("DecodeBlock", t0, d)
			}
			if i := boundViolation(block, dst, maxErr); i >= 0 {
				cs.rc.tally.fail(fmt.Sprintf("codec %s block: value %d decoded to %g, original %g, outside the error bound",
					st.class, i, dst[i], block[i]))
			} else {
				cs.rc.tally.ok()
			}
			blocks++
		}
		if req != nil {
			req.client.end = time.Now().UnixNano()
			lg.export(req)
		}
	}
	return blocks, time.Since(start), nil
}
