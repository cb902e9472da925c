// Chrome trace-event JSON export. The retained ring is rendered in
// the Trace Event Format's "JSON object" flavor — loadable directly
// in Perfetto (ui.perfetto.dev) or chrome://tracing:
//
//   - one process (pid) per retained trace, named via an "M"
//     (metadata) process_name event carrying route/tenant/keep-reason
//   - "X" (complete) events per span, ts/dur in microseconds, packed
//     onto threads (tid) by a greedy interval scheduler so
//     overlapping spans (parallel pipeline workers) get their own
//     lanes instead of nesting incorrectly
//   - span identity (trace_id / span_id / parent_id) and annotations
//     in args, which is also what pastribench's ledger parses to
//     attribute request time and the server tests parse to check
//     retention
package trace

import (
	"encoding/json"
	"io"
	"sort"
)

// chromeEvent is one entry of traceEvents. Field set and JSON names
// follow the Trace Event Format spec.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"` // microseconds
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeDoc is the top-level trace-event JSON object.
type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome renders traces (as returned by Tracer.Ring) as Chrome
// trace-event JSON.
func WriteChrome(w io.Writer, traces []*FinishedTrace) error {
	doc := chromeDoc{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	for i, ft := range traces {
		pid := i + 1
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "process_name",
			Ph:   "M",
			PID:  pid,
			Args: map[string]string{
				"name": ft.Name + " trace=" + ft.TraceID + " tenant=" + ft.Tenant + " keep=" + ft.KeepReason,
			},
		})
		lanes := assignLanes(ft.Spans)
		for j := range ft.Spans {
			sp := &ft.Spans[j]
			ev := chromeEvent{
				Name: sp.Name,
				Cat:  "pastrid",
				Ph:   "X",
				TS:   float64(sp.StartUnixNS) / 1e3,
				Dur:  float64(sp.DurationNS) / 1e3,
				PID:  pid,
				TID:  lanes[j],
				Args: map[string]string{
					"trace_id": ft.TraceID,
					"span_id":  sp.SpanID,
				},
			}
			if sp.ParentID != "" {
				ev.Args["parent_id"] = sp.ParentID
			}
			if sp.Error {
				ev.Args["error"] = "true"
			}
			if sp.DurationNS < 0 { // leaked span: never ended
				ev.Dur = 0
				ev.Args["unfinished"] = "true"
			}
			for _, a := range sp.Attrs {
				ev.Args[a.Key] = a.Value
			}
			doc.TraceEvents = append(doc.TraceEvents, ev)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// assignLanes packs spans onto integer lanes (Chrome tids) so that
// spans overlapping in time never share a lane: sort by start, give
// each span the lowest lane whose previous occupant has ended.
func assignLanes(spans []SpanData) []int {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return spans[order[a]].StartUnixNS < spans[order[b]].StartUnixNS
	})
	lanes := make([]int, len(spans))
	var laneEnd []int64 // end time of the last span on each lane
	for _, idx := range order {
		sp := &spans[idx]
		end := sp.StartUnixNS
		if sp.DurationNS > 0 {
			end += sp.DurationNS
		}
		placed := false
		for l, e := range laneEnd {
			if e <= sp.StartUnixNS {
				lanes[idx] = l
				laneEnd[l] = end
				placed = true
				break
			}
		}
		if !placed {
			lanes[idx] = len(laneEnd)
			laneEnd = append(laneEnd, end)
		}
	}
	return lanes
}
