package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"time"
)

// span is one timed interval of a request, from the benchmark (the
// client span) or from pastrid's /debug/traces export.
type span struct {
	name, id, parent string
	start, end       int64 // unix ns
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// covered is how much of [lo, hi) the union of the intervals of spans
// covers. Children of one span may overlap each other (parallel
// compress workers), so their durations cannot simply be summed.
func covered(lo, hi int64, spans []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.start, lo), min(s.end, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return cmp.Compare(x.a, y.a) })
	var total, curA, curB int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return time.Duration(total)
}

// selfTime is s's duration minus the part of it that children cover.
func selfTime(s span, children []span) time.Duration {
	return s.dur() - covered(s.start, s.end, children)
}

// chromeTrace is the subset of pastrid's /debug/traces export (Chrome
// trace-event JSON) the ledger reads.
type chromeTrace struct {
	TraceEvents []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`  // µs
		Dur  float64           `json:"dur"` // µs
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
}

// parseTraces groups the complete spans of an export by trace id.
func parseTraces(r io.Reader) (map[string][]span, error) {
	var doc chromeTrace
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding /debug/traces: %w", err)
	}
	out := make(map[string][]span)
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		start := int64(math.Round(ev.TS * 1e3))
		tid := ev.Args["trace_id"]
		out[tid] = append(out[tid], span{
			name:   ev.Name,
			id:     ev.Args["span_id"],
			parent: ev.Args["parent_id"],
			start:  start,
			end:    start + int64(math.Round(ev.Dur*1e3)),
		})
	}
	return out, nil
}

// request is one traced request: the benchmark's client span stitched
// to the daemon spans that share its trace id. The codec workload's
// requests are streams: the client span covers a stream's per-block
// calls, and spans holds one span per call.
type request struct {
	kind   string // "read", "upload" or "codec"
	rt     *reqTrace
	client span
	root   span              // daemon root; its parent is the client span
	kids   map[string][]span // daemon spans by parent id
	spans  []span            // every daemon span, root included
}

// stitch attaches the daemon's spans to rt. It reports false when the
// daemon retained no trace whose root the client span parents.
func stitch(rt *reqTrace, upload bool, byTrace map[string][]span) (*request, bool) {
	kind := "read"
	if upload {
		kind = "upload"
	}
	r := &request{
		kind:   kind,
		rt:     rt,
		client: span{name: "client", id: rt.spanID, start: rt.start.UnixNano(), end: rt.end.UnixNano()},
		kids:   make(map[string][]span),
	}
	found := false
	for _, s := range byTrace[rt.traceID] {
		if s.parent == rt.spanID {
			r.root, found = s, true
		}
		r.kids[s.parent] = append(r.kids[s.parent], s)
		r.spans = append(r.spans, s)
	}
	return r, found
}

// child returns the first child of p named name.
func (r *request) child(p span, name string) (span, bool) {
	for _, s := range r.kids[p.id] {
		if s.name == name {
			return s, true
		}
	}
	return span{}, false
}

// self is s's self time within this request.
func (r *request) self(s span) time.Duration { return selfTime(s, r.kids[s.id]) }

// pipeline stages the compress span's children are named after.
var pipelineStages = []string{"block_split", "pattern_fit", "quantize", "encode", "sequencer_wait", "write"}

// ledger accumulates per-layer samples over every stitched request.
type ledger struct {
	reads, uploads, unmatched int

	connWait, ttfb, body, late, residual                  samples
	readSelf, lookupSelf, fill, dedupWait, readAt, decode samples
	readShare                                             []float64

	uploadSelf, compressSelf, seqWait, commitSelf, fsync, buildIndex samples
	uploadShare                                                      []float64
	stageTotal                                                       map[string]time.Duration
	uploadBlocks, fsyncs                                             int

	keep      []*request // the first requests, for the Perfetto export
	keptSpans int
}

func newLedger() *ledger { return &ledger{stageTotal: make(map[string]time.Duration)} }

// maxExportedSpans bounds the spans written to the Perfetto file (an
// upload has about six spans per block).
const maxExportedSpans = 50000

// stitchAdd stitches rt to the daemon's spans and adds the request, or
// counts it unmatched when the daemon retained no trace for it.
func (l *ledger) stitchAdd(rt *reqTrace, upload bool, blocks int, byTrace map[string][]span) {
	if r, ok := stitch(rt, upload, byTrace); ok {
		l.add(r, blocks)
	} else {
		l.unmatched++
	}
}

// export keeps r for the Perfetto file while the span budget lasts.
func (l *ledger) export(r *request) {
	if l.keptSpans < maxExportedSpans {
		l.keep = append(l.keep, r)
		l.keptSpans += len(r.spans) + 1
	}
}

func (l *ledger) add(r *request, blocks int) {
	l.export(r)
	total := r.client.dur()
	conn := r.rt.gotConn.Sub(r.rt.start)
	body := r.rt.end.Sub(r.rt.firstByte)
	// Everything the client saw that neither the client's own phases nor
	// the daemon's root span account for: loopback TCP, HTTP parsing
	// ahead of the handler, and scheduling delay on two shared vCPUs.
	unattributed := total - conn - body - r.root.dur()
	share := float64(unattributed) / float64(total)
	if r.kind == "upload" {
		l.uploads++
		l.uploadShare = append(l.uploadShare, share)
		l.uploadSelf = append(l.uploadSelf, r.self(r.root))
		if c, ok := r.child(r.root, "compress"); ok {
			l.compressSelf = append(l.compressSelf, r.self(c))
			for _, s := range r.kids[c.id] {
				l.stageTotal[s.name] += s.dur()
				if s.name == "sequencer_wait" {
					l.seqWait = append(l.seqWait, s.dur())
				}
			}
			l.uploadBlocks += blocks
		}
		if c, ok := r.child(r.root, "store.commit"); ok {
			l.commitSelf = append(l.commitSelf, r.self(c))
			for _, s := range r.kids[c.id] {
				switch s.name {
				case "store.fsync":
					l.fsyncs++
					l.fsync = append(l.fsync, s.dur())
				case "store.build_index":
					l.buildIndex = append(l.buildIndex, s.dur())
				}
			}
		}
		return
	}
	l.reads++
	l.readShare = append(l.readShare, share)
	l.connWait = append(l.connWait, conn)
	l.ttfb = append(l.ttfb, r.rt.firstByte.Sub(r.rt.gotConn))
	l.body = append(l.body, body)
	l.residual = append(l.residual, unattributed)
	if !r.rt.due.IsZero() {
		l.late = append(l.late, r.rt.start.Sub(r.rt.due))
	}
	l.readSelf = append(l.readSelf, r.self(r.root))
	lookup, ok := r.child(r.root, "cache.lookup")
	if !ok {
		return
	}
	l.lookupSelf = append(l.lookupSelf, r.self(lookup))
	if w, ok := r.child(lookup, "cache.dedup_wait"); ok {
		l.dedupWait = append(l.dedupWait, w.dur())
	}
	fill, ok := r.child(lookup, "cache.fill")
	if !ok {
		return
	}
	l.fill = append(l.fill, fill.dur())
	if s, ok := r.child(fill, "store.read_at"); ok {
		l.readAt = append(l.readAt, s.dur())
	}
	if s, ok := r.child(fill, "store.decode"); ok {
		l.decode = append(l.decode, s.dur())
	}
}

// report emits the per-layer metrics the traces give.
func (l *ledger) report(set func(name string, v float64, unit string, n int)) {
	set("client.conn_wait_us.p99", l.connWait.us(0.99), "us", len(l.connWait))
	set("client.ttfb_us.p50", l.ttfb.us(0.50), "us", len(l.ttfb))
	set("client.ttfb_us.p99", l.ttfb.us(0.99), "us", len(l.ttfb))
	set("client.body_us.p50", l.body.us(0.50), "us", len(l.body))
	set("loadgen.late_us.p99", l.late.us(0.99), "us", len(l.late))
	set("net.residual_us.p50", l.residual.us(0.50), "us", len(l.residual))
	set("server.read_self_us.p50", l.readSelf.us(0.50), "us", len(l.readSelf))
	set("server.read_self_us.p99", l.readSelf.us(0.99), "us", len(l.readSelf))
	set("server.upload_self_us.p50", l.uploadSelf.us(0.50), "us", len(l.uploadSelf))
	set("blockcache.lookup_self_us.p50", l.lookupSelf.us(0.50), "us", len(l.lookupSelf))
	set("blockcache.lookup_self_us.p99", l.lookupSelf.us(0.99), "us", len(l.lookupSelf))
	set("blockcache.fill_us.p50", l.fill.us(0.50), "us", len(l.fill))
	set("blockcache.fill_us.p99", l.fill.us(0.99), "us", len(l.fill))
	set("blockcache.dedup_wait_us.p99", l.dedupWait.us(0.99), "us", len(l.dedupWait))
	set("store.read_at_us.p50", l.readAt.us(0.50), "us", len(l.readAt))
	set("store.read_at_us.p99", l.readAt.us(0.99), "us", len(l.readAt))
	set("core.decode_us.p50", l.decode.us(0.50), "us", len(l.decode))
	set("core.decode_us.p99", l.decode.us(0.99), "us", len(l.decode))
	set("ledger.unattributed_share.read", quantile(sortedCopy(l.readShare), 0.5), "share", len(l.readShare))
	set("trace.unmatched", float64(l.unmatched), "count", l.reads+l.uploads+l.unmatched)
	if l.uploads == 0 {
		return
	}
	set("store.commit_self_us.p50", l.commitSelf.us(0.50), "us", len(l.commitSelf))
	set("store.commit_self_us.p99", l.commitSelf.us(0.99), "us", len(l.commitSelf))
	set("store.fsync_us.p50", l.fsync.us(0.50), "us", len(l.fsync))
	set("store.fsync_us.p99", l.fsync.us(0.99), "us", len(l.fsync))
	set("store.build_index_us.p50", l.buildIndex.us(0.50), "us", len(l.buildIndex))
	set("store.fsyncs_per_upload", float64(l.fsyncs)/float64(l.uploads), "1/upload", l.uploads)
	set("core.compress_self_us.p50", l.compressSelf.us(0.50), "us", len(l.compressSelf))
	set("core.sequencer_wait_us.p99", l.seqWait.us(0.99), "us", len(l.seqWait))
	for _, st := range pipelineStages {
		if st == "sequencer_wait" {
			continue
		}
		set("core."+st+"_us", float64(l.stageTotal[st])/1e3/float64(l.uploadBlocks), "us/block", l.uploadBlocks)
	}
	set("ledger.unattributed_share.upload", quantile(sortedCopy(l.uploadShare), 0.5), "share", len(l.uploadShare))
}

func sortedCopy(v []float64) []float64 {
	out := slices.Clone(v)
	slices.Sort(out)
	return out
}

// writePerfetto writes the kept requests as Chrome trace-event JSON,
// one process per request. The client span and the daemon spans share
// a lane wherever they nest, so Perfetto draws each client span as the
// parent of its daemon root; overlapping siblings get lanes of their
// own.
func (l *ledger) writePerfetto(w io.Writer) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts,omitempty"`
		Dur  float64           `json:"dur,omitempty"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	events := []event{}
	for i, r := range l.keep {
		pid := i + 1
		events = append(events, event{Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]string{"name": r.kind + " trace=" + r.rt.traceID}})
		all := append([]span{r.client}, r.spans...)
		lanes := nestLanes(all)
		for j, s := range all {
			side := "daemon"
			switch {
			case r.kind == "codec":
				side = "in-process"
			case j == 0:
				side = "client"
			}
			args := map[string]string{"trace_id": r.rt.traceID, "span_id": s.id, "side": side}
			if s.parent != "" {
				args["parent_id"] = s.parent
			}
			events = append(events, event{Name: s.name, Ph: "X", TS: float64(s.start) / 1e3,
				Dur: float64(s.end-s.start) / 1e3, PID: pid, TID: lanes[j], Args: args})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// nestLanes assigns each span a lane such that spans on one lane either
// nest or do not overlap, which is how trace viewers draw parent and
// child on one track.
func nestLanes(spans []span) []int {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		sa, sb := spans[a], spans[b]
		// By start, and longer first at equal starts, so parents precede
		// their children.
		return cmp.Or(cmp.Compare(sa.start, sb.start), cmp.Compare(sb.end, sa.end))
	})
	lanes := make([]int, len(spans))
	var stacks [][]int64 // per lane: end times of the open spans
	for _, i := range order {
		s := spans[i]
		placed := false
		for l := range stacks {
			st := stacks[l]
			for len(st) > 0 && st[len(st)-1] <= s.start {
				st = st[:len(st)-1]
			}
			stacks[l] = st
			if len(st) == 0 || s.end <= st[len(st)-1] {
				stacks[l] = append(st, s.end)
				lanes[i], placed = l, true
				break
			}
		}
		if !placed {
			lanes[i] = len(stacks)
			stacks = append(stacks, []int64{s.end})
		}
	}
	return lanes
}
