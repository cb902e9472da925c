package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// blockKey addresses one block of the read set: stream index, block.
type blockKey struct{ s, b int }

// service drives one pastrid workload: read_hot, read_cold or
// ingest_mixed.
type service struct {
	rc   *runCtx
	p    *pool
	set  []stream // the streams reads address
	keys []blockKey

	d     *daemon
	c     *client
	store string

	rawStored, stored atomic.Int64 // preload: raw and stored bytes

	round     int      // load phases started, to give each its own random streams
	uploads   int      // uploads issued so far, for unique ids
	live      []stream // uploaded streams not yet deleted, oldest first
	liveBytes int64    // raw bytes of live
}

func runService(rc *runCtx) error {
	sz := rc.sz
	sets, err := loadDatasets(sz.molecules, 2, sz.ddBlocks)
	if err != nil {
		return err
	}
	rc.noteDatasets("pool", sets)
	p, err := newPool(sets)
	if err != nil {
		return err
	}
	sv := &service{rc: rc, p: p}
	rng := rc.rng(rngStreams, 0)
	if rc.workload == "read_hot" {
		sv.set = p.composeStreams(rng, "hot", sz.hotStreams, sz.hotBlocks)
	} else {
		sv.set = p.composeStreams(rng, "cold", sz.coldStreams, sz.coldBlocks)
	}
	for i, s := range sv.set {
		for b := range s.blocks {
			sv.keys = append(sv.keys, blockKey{i, b})
		}
	}
	rc.prov.Blocks = len(sv.keys)
	rc.prov.BlockBytes = p.blockBytes()
	defer sv.stop()

	repeats := sz.setupRepeats
	if rc.trace {
		repeats = 1 // set-up time is an end-to-end metric; the traced run reports layers only
	}
	var setups scaled
	for i := range repeats {
		if sv.d != nil {
			sv.stop()
			if err := os.RemoveAll(sv.store); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if err := sv.setUp(fmt.Sprintf("store%d", i), false, true); err != nil {
			return err
		}
		setups.raw = append(setups.raw, time.Since(t0))
		rc.phase("setup", t0, len(sv.keys), 0)
		setups.settle(rc.speed.sample(sv.d.cmd.Process))
	}
	rc.setSetup(setups)
	if rc.workload != "ingest_mixed" {
		rc.set("ratio", float64(sv.rawStored.Load())/float64(sv.stored.Load()), "x", len(sv.set))
	}
	if rc.prov.StoreFS, err = fsType(sv.store); err != nil {
		return err
	}

	if rc.trace {
		err = sv.traced()
	} else {
		// Phases begin at a fixed offset from daemon start, so the SLO
		// sampler's 15 s ticks fall in the same phase on every commit.
		offset := sz.offsetCold
		if rc.workload == "read_hot" {
			offset = sz.offsetHot
		}
		if late := time.Since(sv.d.started) - offset; late > 0 {
			fmt.Fprintf(os.Stderr, "pastribench: set-up overran the %v phase offset by %v\n", offset, late)
		}
		time.Sleep(time.Until(sv.d.started.Add(offset)))
		if rc.workload == "ingest_mixed" {
			err = sv.measureIngest()
		} else {
			err = sv.measureReads()
		}
	}
	if err != nil {
		return err
	}
	rss, err := sv.d.peakRSSMB()
	if err != nil {
		return err
	}
	rc.set("peak_rss_mb", rss, "MB", 1)
	return nil
}

// setUp starts a daemon on store (a directory under the run directory),
// uploads the read set when preload is set, and warms the cache.
func (sv *service) setUp(store string, traced, preload bool) error {
	sv.store = filepath.Join(sv.rc.dir, store)
	d, err := startDaemon(sv.rc.ctx, sv.rc.bin, sv.rc.dir, daemonConfig(sv.store, traced, sv.ringDepth()))
	if err != nil {
		return err
	}
	sv.d, sv.c = d, newClient(d.base)
	if preload {
		sv.rawStored.Store(0)
		sv.stored.Store(0)
		var next atomic.Int64
		var wg sync.WaitGroup
		for range maxConns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var body []byte
				var out bytes.Buffer
				for i := int(next.Add(1) - 1); i < len(sv.set); i = int(next.Add(1) - 1) {
					body = sv.p.appendBody(body[:0], sv.set[i])
					if rep, ok := sv.upload(sv.set[i], body, nil, &out); ok {
						sv.rawStored.Add(rep.RawBytes)
						sv.stored.Add(rep.StoredBytes)
					}
				}
			}()
		}
		wg.Wait()
	}
	return sv.warm()
}

// warm reads every block once for read_hot, and otherwise twice the
// cache's entry count (or twice the set, if smaller) of uniformly random
// blocks, before anything is timed.
func (sv *service) warm() error {
	n := len(sv.keys)
	pickKey := func(_ *rand.Rand, i int) int { return i }
	if sv.rc.workload != "read_hot" {
		n = 2 * min(int(daemonConfig("", false, 0).CacheBytes)/sv.p.blockBytes(), len(sv.keys))
		pickKey = func(rng *rand.Rand, _ int) int { return rng.IntN(len(sv.keys)) }
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range maxConns {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := sv.rc.rng(rngWarm, w)
			var out bytes.Buffer
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				sv.readCheck(sv.keys[pickKey(rng, i)], nil, &out)
			}
		}(w)
	}
	wg.Wait()
	if f := sv.rc.tally.failed.Load(); f > 0 {
		return fmt.Errorf("%d operations failed during set-up: %s", f, sv.rc.tally.firstError())
	}
	return nil
}

// ringDepth sizes the traced daemon's retained-trace ring to about two
// windows of traffic: every request of the window just sent is still in
// the ring when it is fetched, and uploads, which carry hundreds of
// spans each, do not pile up in it.
func (sv *service) ringDepth() int {
	return 2*int(sv.rate()*sv.rc.sz.traceWindow.Seconds()) + maxWindowUploads
}

// maxWindowUploads bounds the uploads one ledger window can send: each
// takes more than a millisecond.
const maxWindowUploads = 256

// rate is the workload's open-loop offered read rate.
func (sv *service) rate() float64 {
	if sv.rc.workload == "ingest_mixed" {
		return sv.rc.sz.mixedRate
	}
	return sv.rc.sz.readRate
}

// stop stops the current daemon, if any.
func (sv *service) stop() {
	if sv.d != nil {
		sv.c.close()
		sv.d.stop()
		sv.d = nil
	}
}

// readCheck reads k and byte-compares it with the serial oracle.
func (sv *service) readCheck(k blockKey, rt *reqTrace, out *bytes.Buffer) {
	s := &sv.set[k.s]
	if err := sv.c.read(sv.rc.ctx, s.id, k.b, rt, out); err != nil {
		sv.rc.tally.fail(err.Error())
		return
	}
	want := sv.p.oracle[s.blocks[k.b]]
	if got := out.Bytes(); !bytes.Equal(got, want) {
		sv.rc.tally.fail(describeMismatch(s.id, k.b, got, want))
		return
	}
	sv.rc.tally.ok()
}

// upload stores s and checks pastrid's reply against the serial
// compression of its blocks: the same block count, raw size and stored
// size.
func (sv *service) upload(s stream, body []byte, rt *reqTrace, out *bytes.Buffer) (uploadReply, bool) {
	rep, err := sv.c.upload(sv.rc.ctx, s.id, body, rt, out)
	if err != nil {
		sv.rc.tally.fail(err.Error())
		return rep, false
	}
	if want := sv.p.storedBytes(s); rep.Blocks != len(s.blocks) || rep.RawBytes != int64(len(body)) || rep.StoredBytes != want {
		sv.rc.tally.fail(fmt.Sprintf("upload %s: pastrid stored %d blocks, %d raw bytes as %d bytes; the serial compression is %d blocks, %d raw bytes as %d bytes",
			s.id, rep.Blocks, rep.RawBytes, rep.StoredBytes, len(s.blocks), len(body), want))
		return rep, false
	}
	sv.rc.tally.ok()
	return rep, true
}

// measureReads runs the open-loop phase, then the closed-loop phase.
// The gated latency comes from the closed loop: on two shared vCPUs the
// open loop's percentiles swing by tens of percent from run to run with
// host noise, so they are reported beside it but not gated.
func (sv *service) measureReads() error {
	rc := sv.rc
	half := rc.dur / 2
	start := time.Now()
	lat, late := sv.openReads(half, maxConns, nil)
	rc.phase("open_reads", start, len(lat), sv.rate())
	rc.speed.sample(sv.d.cmd.Process)
	rc.set("read_p50_ms", lat.ms(0.50), "ms", len(lat))
	rc.set("read_p99_ms", lat.ms(0.99), "ms", len(lat))
	rc.set("loadgen.late_us.p99", late.us(0.99), "us", len(late))
	cl, busy := sv.closedReads(half, false)
	n := len(cl.raw)
	rc.set("read_rps", float64(n)/busy.raw.total().Seconds(), "1/s", n)
	rc.setRate(int64(n*sv.p.blockBytes()), busy)
	rc.setLatencies(cl)
	return nil
}

// openReads reads uniformly random blocks at the workload's offered
// rate for dur. With rts non-nil every request is traced and its record
// appended.
func (sv *service) openReads(dur time.Duration, senders int, rts *[]*reqTrace) (lat, late samples) {
	rc := sv.rc
	rate := sv.rate()
	sv.round++
	sched := poissonSchedule(rc.rng(rngSchedule, sv.round), rate, dur, len(sv.keys))
	outs := make([]bytes.Buffer, senders)
	idRNG := make([]*rand.Rand, senders)
	traces := make([][]*reqTrace, senders)
	for s := range idRNG {
		idRNG[s] = rc.rng(rngIDs, sv.round*maxConns+s)
	}
	start := time.Now().Add(time.Millisecond)
	lat, late = openLoop(rc.ctx, start, sched, senders, func(s int, a arrival) {
		var rt *reqTrace
		if rts != nil {
			rt = newReqTrace(idRNG[s])
			rt.due = start.Add(a.at)
			traces[s] = append(traces[s], rt)
		}
		sv.readCheck(sv.keys[a.key], rt, &outs[s])
	})
	if rts != nil {
		for _, t := range traces {
			*rts = append(*rts, t...)
		}
	}
	return lat, late
}

// loadSlice is how long load runs between two samples of the host-speed
// reference.
const loadSlice = time.Second

// closedReads runs maxConns callers back to back for dur, in slices with
// the host-speed reference sampled after each, and returns each read's
// latency and each slice's duration.
func (sv *service) closedReads(dur time.Duration, traced bool) (lat, busy scaled) {
	rc := sv.rc
	outs := make([]bytes.Buffer, maxConns)
	sv.round++
	rngs := make([]*rand.Rand, maxConns)
	for c := range rngs {
		rngs[c] = rc.rng(rngClosed, sv.round*maxConns+c)
	}
	read := func(c int) {
		var rt *reqTrace
		if traced {
			rt = newReqTrace(rngs[c])
		}
		sv.readCheck(sv.keys[rngs[c].IntN(len(sv.keys))], rt, &outs[c])
	}
	start := time.Now()
	for end := start.Add(dur); time.Now().Before(end) && rc.ctx.Err() == nil; {
		sliceEnd := time.Now().Add(loadSlice)
		if sliceEnd.After(end) {
			sliceEnd = end
		}
		l, elapsed := closedLoop(rc.ctx, maxConns, sliceEnd, read)
		lat.raw = append(lat.raw, l...)
		busy.raw = append(busy.raw, elapsed)
		slow := rc.speed.sample(sv.d.cmd.Process)
		lat.settle(slow)
		busy.settle(slow)
	}
	rc.phase("closed_reads", start, len(lat.raw), 0)
	return lat, busy
}

// measureIngest runs the uploader beside the open-loop reader.
func (sv *service) measureIngest() error {
	rc := sv.rc
	up, reads := sv.mixed(rc.dur, nil, nil)
	n := len(up.lat.raw)
	rc.setRate(up.raw, up.lat)
	rc.setLatencies(up.lat)
	rc.set("ratio", float64(up.raw)/float64(up.stored), "x", n)
	rc.set("upload_mbps", up.mbps(), "MB/s", n)
	rc.set("upload_p50_ms", up.lat.raw.ms(0.50), "ms", n)
	rc.set("upload_p99_ms", up.lat.raw.windowedP99ms(), "ms", n)
	rc.set("read_p50_ms", reads.ms(0.50), "ms", len(reads))
	rc.set("read_p99_ms", reads.ms(0.99), "ms", len(reads))
	return nil
}

// uploadStats summarizes the uploads of one phase.
type uploadStats struct {
	lat         scaled
	raw, stored int64
}

// mbps is raw megabytes uploaded per second of upload request time.
func (u uploadStats) mbps() float64 { return float64(u.raw) / 1e6 / u.lat.raw.total().Seconds() }

// tracedUpload is an upload's client record and its block count.
type tracedUpload struct {
	rt     *reqTrace
	blocks int
}

// mixed runs uploads beside the open-loop reader for dur, in slices with
// the host-speed reference sampled after each.
func (sv *service) mixed(dur time.Duration, rts *[]*reqTrace, ups *[]tracedUpload) (uploadStats, samples) {
	rc := sv.rc
	var up uploadStats
	var reads samples
	start := time.Now()
	for end := start.Add(dur); time.Now().Before(end) && rc.ctx.Err() == nil; {
		u, r := sv.mixedSlice(min(loadSlice, time.Until(end)), rts, ups)
		up.lat.raw = append(up.lat.raw, u.lat.raw...)
		up.raw += u.raw
		up.stored += u.stored
		reads = append(reads, r...)
		up.lat.settle(rc.speed.sample(sv.d.cmd.Process))
	}
	rc.phase("uploads_and_reads", start, len(up.lat.raw)+len(reads), sv.rate())
	return up, reads
}

// mixedSlice runs one uploader back to back and one open-loop reader at
// the ingest rate for dur. Each upload is a fresh stream of pooled
// blocks; once it is stored, the stream uploaded deleteLag uploads
// earlier is deleted, which bounds disk use. With rts/ups non-nil every
// request is traced and its record appended.
func (sv *service) mixedSlice(dur time.Duration, rts *[]*reqTrace, ups *[]tracedUpload) (uploadStats, samples) {
	rc := sv.rc
	var up uploadStats
	deadline := time.Now().Add(dur)
	sv.round++
	idRNG := rc.rng(rngIDs, sv.round*maxConns)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var body []byte
		var out bytes.Buffer
		for time.Now().Before(deadline) && rc.ctx.Err() == nil {
			k := sv.uploads
			sv.uploads++
			s := stream{id: fmt.Sprintf("up%d", k), blocks: sv.p.pick(rc.rng(rngUpload, k), rc.sz.uploadBlocks)}
			body = sv.p.appendBody(body[:0], s)
			var rt *reqTrace
			if ups != nil {
				rt = newReqTrace(idRNG)
			}
			t0 := time.Now()
			rep, ok := sv.upload(s, body, rt, &out)
			up.lat.raw = append(up.lat.raw, time.Since(t0))
			if !ok {
				continue
			}
			if ups != nil {
				*ups = append(*ups, tracedUpload{rt, len(s.blocks)})
			}
			up.raw += rep.RawBytes
			up.stored += rep.StoredBytes
			sv.live = append(sv.live, s)
			sv.liveBytes += rep.RawBytes
			if len(sv.live) > rc.sz.deleteLag {
				old := sv.live[0]
				sv.live = sv.live[1:]
				sv.liveBytes -= int64(len(old.blocks) * sv.p.blockBytes())
				if err := sv.c.remove(rc.ctx, old.id, &out); err != nil {
					rc.tally.fail(err.Error())
				} else {
					rc.tally.ok()
				}
			}
		}
	}()
	reads, _ := sv.openReads(dur, 1, rts)
	wg.Wait()
	return up, reads
}

// traced is the traced run. The tracing overhead comes from capacity
// phases in the order untraced, traced, traced, untraced, so a steady
// drift in the machine's speed cancels; the untraced daemon runs the
// production retention and the traced one keeps every trace. Between
// the two traced capacity phases, windows of open-loop traffic are
// traced and each window's client spans are stitched to the daemon's.
func (sv *service) traced() error {
	rc := sv.rc
	capDur := rc.dur / 8
	var plain, traced, gcs float64
	var reqs int
	untraced := func() error {
		before, err := sv.d.scrape(sv.c.hc)
		if err != nil {
			return err
		}
		v, n := sv.capacity(capDur, false)
		after, err := sv.d.scrape(sv.c.hc)
		if err != nil {
			return err
		}
		plain += v
		reqs += n
		gcs += delta(before, after, "go_gc_cycles_total")
		return nil
	}
	restart := func(tracedDaemon bool) error {
		sv.stop()
		return sv.setUp(filepath.Base(sv.store), tracedDaemon, false)
	}

	if err := untraced(); err != nil {
		return err
	}
	if rc.workload == "ingest_mixed" {
		if err := sv.collectorOverhead(); err != nil {
			return err
		}
	}
	if err := restart(true); err != nil {
		return err
	}
	v, _ := sv.capacity(capDur, true)
	traced += v
	before, err := sv.d.scrape(sv.c.hc)
	if err != nil {
		return err
	}
	lg, reads, err := sv.ledgerWindows(rc.dur / 2)
	if err != nil {
		return err
	}
	after, err := sv.d.scrape(sv.c.hc)
	if err != nil {
		return err
	}
	v, _ = sv.capacity(capDur, true)
	traced += v
	final, err := sv.d.scrape(sv.c.hc)
	if err != nil {
		return err
	}
	if err := restart(false); err != nil {
		return err
	}
	if err := untraced(); err != nil {
		return err
	}

	rc.set("trace.overhead_share", 1-traced/plain, "share", 4)
	rc.set("runtime.gc_per_kreq", gcs/(float64(reqs)/1e3), "1/kreq", reqs)
	rc.set("trace.spans_dropped", final["pastrid_trace_spans_dropped_total"], "count", 1)
	lg.report(rc.set)
	hits, misses := delta(before, after, "pastrid_cache_hits_total"), delta(before, after, "pastrid_cache_misses_total")
	rc.set("blockcache.hits", hits, "count", reads)
	rc.set("blockcache.misses", misses, "count", reads)
	rc.set("blockcache.hit_ratio", hits/(hits+misses), "share", int(hits+misses))
	rc.set("blockcache.dedup_waits", delta(before, after, "pastrid_cache_dedup_waits_total"), "count", reads)
	rc.set("blockcache.evictions_per_read", delta(before, after, "pastrid_cache_evictions_total")/float64(reads), "1/read", reads)
	n, err := dirBytes(sv.store)
	if err != nil {
		return err
	}
	rc.set("store.bytes_per_raw_byte", float64(n)/float64(sv.rawStored.Load()+sv.liveBytes), "B/B", 1)
	return rc.writePerfetto(lg)
}

// ledgerWindows runs windows of open-loop traffic (with the uploader,
// for ingest_mixed) for dur. After each window it fetches
// /debug/traces, whose ring holds more traces than a window sends, and
// stitches the window's client spans to the daemon's spans. It returns
// the ledger and the reads sent.
func (sv *service) ledgerWindows(dur time.Duration) (*ledger, int, error) {
	lg := newLedger()
	reads := 0
	start := time.Now()
	defer func() { sv.rc.phase("ledger_windows", start, reads, sv.rate()) }()
	for end := start.Add(dur); time.Now().Before(end) && sv.rc.ctx.Err() == nil; {
		var rts []*reqTrace
		var ups []tracedUpload
		if sv.rc.workload == "ingest_mixed" {
			sv.mixedSlice(sv.rc.sz.traceWindow, &rts, &ups)
		} else {
			sv.openReads(sv.rc.sz.traceWindow, maxConns, &rts)
		}
		reads += len(rts)
		body, err := getBody(sv.c.hc, sv.d.base+"/debug/traces")
		if err != nil {
			return nil, 0, err
		}
		byTrace, err := parseTraces(bytes.NewReader(body))
		if err != nil {
			return nil, 0, err
		}
		for _, rt := range rts {
			lg.stitchAdd(rt, false, 0, byTrace)
		}
		for _, u := range ups {
			lg.stitchAdd(u.rt, true, u.blocks, byTrace)
		}
	}
	return lg, reads, nil
}

// capacity measures the workload's closed-loop rate for dur: reads per
// second for the read workloads, raw upload MB/s beside the fixed-rate
// reader for ingest_mixed. It also returns the requests issued.
func (sv *service) capacity(dur time.Duration, traced bool) (float64, int) {
	if sv.rc.workload != "ingest_mixed" {
		lat, busy := sv.closedReads(dur, traced)
		return float64(len(lat.raw)) / busy.raw.total().Seconds(), len(lat.raw)
	}
	var rts *[]*reqTrace
	var ups *[]tracedUpload
	if traced {
		rts, ups = new([]*reqTrace), new([]tracedUpload)
	}
	up, reads := sv.mixed(dur, rts, ups)
	return up.mbps(), len(up.lat.raw) + len(reads)
}

// collectorOverhead times core.Compress of one upload body with the
// always-on tenant collector pastrid attaches (telemetry.New(-1))
// against a nil collector, alternating, and reports the ratio of the
// medians.
func (sv *service) collectorOverhead() error {
	s := stream{blocks: sv.p.pick(sv.rc.rng(rngOverhead, 0), sv.rc.sz.uploadBlocks)}
	data := make([]float64, 0, len(s.blocks)*sv.p.cfg.BlockSize())
	for _, b := range s.blocks {
		data = append(data, decodeLE(sv.p.raw[b])...)
	}
	cfg := sv.p.cfg
	cfg.Workers = 0
	var with, without samples
	for i := range 2 * sv.rc.sz.overheadPairs {
		c := cfg
		if i%2 == 1 {
			c.Collector = telemetry.New(-1)
		}
		t0 := time.Now()
		if _, err := core.Compress(data, c, nil); err != nil {
			return fmt.Errorf("collector overhead: %w", err)
		}
		if i%2 == 1 {
			with = append(with, time.Since(t0))
		} else {
			without = append(without, time.Since(t0))
		}
	}
	sv.rc.set("telemetry.collector_overhead", with.us(0.5)/without.us(0.5), "x", len(with))
	return nil
}

func delta(before, after map[string]float64, name string) float64 { return after[name] - before[name] }

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		fi, err := e.Info()
		if err != nil {
			return err
		}
		n += fi.Size()
		return nil
	})
	return n, err
}

// describeMismatch names the first value where a read differs from the
// oracle.
func describeMismatch(id string, block int, got, want []byte) string {
	if len(got) != len(want) {
		return fmt.Sprintf("read %s block %d: %d bytes, the oracle has %d", id, block, len(got), len(want))
	}
	g, w := decodeLE(got), decodeLE(want)
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			return fmt.Sprintf("read %s block %d: value %d is %g, the serial oracle has %g", id, block, i, g[i], w[i])
		}
	}
	return fmt.Sprintf("read %s block %d differs from the oracle", id, block)
}
