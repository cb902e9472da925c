// Package opsreport turns pastrid's self-observation surfaces — the
// /debug/slo burn-rate evaluation, the /debug/history metrics ring, and
// the profile ring's attribution sidecars — into a plain-text operator
// report: SLO verdicts per tenant, the pipeline stage dominating the
// burn window, the cache hit trend, and the profile-ring entries a dump
// lists. The same renderer runs against a live daemon (pastrid report
// -addr) or a committed dump file (pastrid report -file), so an
// incident review works from artifacts alone.
package opsreport

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/telemetry/profring"
	"repro/internal/telemetry/slo"
	"repro/internal/telemetry/tsdb"
)

// Dump is the self-contained ops snapshot: everything Render needs,
// serializable so a bench run or a draining daemon can leave one
// behind.
type Dump struct {
	SLO     *slo.Report  `json:"slo"`
	History tsdb.History `json:"history"`
	// Profiles lists the profile ring's attribution sidecars (what was
	// captured, why, and for which tenant); the profile bytes stay on
	// disk.
	Profiles []profring.Entry `json:"profiles,omitempty"`
}

// Fetch assembles a Dump from a live daemon's debug endpoints.
func Fetch(client *http.Client, baseURL string) (Dump, error) {
	if client == nil {
		client = http.DefaultClient
	}
	var d Dump
	if err := getJSON(client, baseURL+"/debug/slo", &d.SLO); err != nil {
		return Dump{}, err
	}
	if err := getJSON(client, baseURL+"/debug/history", &d.History); err != nil {
		return Dump{}, err
	}
	return d, nil
}

func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //lint:errdrop-ok response body fully read; close error is unactionable
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("opsreport: GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("opsreport: decoding %s: %w", url, err)
	}
	return nil
}

// Load reads a Dump previously written with WriteJSON.
func Load(r io.Reader) (Dump, error) {
	var d Dump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return Dump{}, fmt.Errorf("opsreport: parsing dump: %w", err)
	}
	return d, nil
}

// WriteJSON serializes the dump, indented.
func (d Dump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// stamp formats a unix-nano timestamp for the report.
func stamp(unixNano int64) string {
	return time.Unix(0, unixNano).UTC().Format(time.RFC3339)
}

// Render writes the plain-text ops report.
func Render(w io.Writer, d Dump) error {
	var b strings.Builder
	renderHeader(&b, d)
	renderSLO(&b, d.SLO)
	renderStages(&b, d.History)
	renderCache(&b, d.History)
	renderProfiles(&b, d.Profiles)
	_, err := io.WriteString(w, b.String())
	return err
}

func renderHeader(b *strings.Builder, d Dump) {
	b.WriteString("pastrid ops report\n")
	switch {
	case d.SLO != nil:
		fmt.Fprintf(b, "generated: %s\n", stamp(d.SLO.GeneratedUnixNano))
	case len(d.History.Samples) > 0:
		fmt.Fprintf(b, "generated: %s\n", stamp(d.History.Samples[len(d.History.Samples)-1].UnixNano))
	}
	n := len(d.History.Samples)
	if n > 1 {
		span := time.Duration(d.History.Samples[n-1].UnixNano - d.History.Samples[0].UnixNano)
		fmt.Fprintf(b, "history: %d samples spanning %s (ring depth %d)\n", n, span, d.History.Depth)
	} else {
		fmt.Fprintf(b, "history: %d samples (ring depth %d)\n", n, d.History.Depth)
	}
}

func renderSLO(b *strings.Builder, rep *slo.Report) {
	b.WriteString("\n== SLO ==\n")
	if rep == nil {
		b.WriteString("no SLO evaluation in dump\n")
		return
	}
	fmt.Fprintf(b, "worst state: %s (windows %s/%s)\n", rep.WorstState,
		time.Duration(rep.FastWindowMS)*time.Millisecond,
		time.Duration(rep.SlowWindowMS)*time.Millisecond)
	for _, t := range rep.TenantNames() {
		tr := rep.Tenants[t]
		fmt.Fprintf(b, "tenant %s: %s  (read p50 %.2fms p99 %.2fms, upload p50 %.2fms p99 %.2fms)\n",
			t, tr.State,
			tr.Latency.ReadP50MS, tr.Latency.ReadP99MS,
			tr.Latency.UploadP50MS, tr.Latency.UploadP99MS)
		for _, os := range tr.Objectives {
			th := ""
			if os.ThresholdMS > 0 {
				th = fmt.Sprintf(" @%gms", os.ThresholdMS)
			}
			fmt.Fprintf(b, "  %-14s target %.5f%s  burn fast %.2f / slow %.2f  events %g good / %g bad  %s\n",
				os.Objective, os.Target, th, os.FastBurn, os.SlowBurn,
				os.LifetimeGood, os.LifetimeBad, os.State)
		}
	}
}

// stageDelta is one pipeline stage's share of the history window.
type stageDelta struct {
	stage string
	ns    float64
}

// stageDeltas aggregates per-tenant stage_ns growth across the history
// window, descending.
func stageDeltas(h tsdb.History) []stageDelta {
	n := len(h.Samples)
	if n < 2 {
		return nil
	}
	oldest, newest := h.Samples[0], h.Samples[n-1]
	byStage := make(map[string]float64)
	for k := range newest.Values {
		_, base, ok := tsdb.SplitTenant(k)
		if !ok {
			continue
		}
		stage, ok := tsdb.SplitStage(base)
		if !ok {
			continue
		}
		byStage[stage] += tsdb.Delta(newest, oldest, k)
	}
	out := make([]stageDelta, 0, len(byStage))
	for s, ns := range byStage {
		out = append(out, stageDelta{s, ns})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ns != out[j].ns {
			return out[i].ns > out[j].ns
		}
		return out[i].stage < out[j].stage
	})
	return out
}

// renderStages names the dominant pipeline stage over the history
// window — the first place to point a profiler when an SLO burns.
func renderStages(b *strings.Builder, h tsdb.History) {
	b.WriteString("\n== Pipeline stages (history window) ==\n")
	deltas := stageDeltas(h)
	if len(deltas) == 0 {
		b.WriteString("insufficient history for stage attribution\n")
		return
	}
	var total float64
	for _, d := range deltas {
		total += d.ns
	}
	if total <= 0 {
		b.WriteString("no stage time recorded in window\n")
		return
	}
	fmt.Fprintf(b, "dominant stage: %s (%.1f%% of %.1fms total stage time)\n",
		deltas[0].stage, 100*deltas[0].ns/total, total/1e6)
	for _, d := range deltas {
		fmt.Fprintf(b, "  %-14s %10.3fms  %5.1f%%\n", d.stage, d.ns/1e6, 100*d.ns/total)
	}
}

func renderCache(b *strings.Builder, h tsdb.History) {
	b.WriteString("\n== Cache ==\n")
	n := len(h.Samples)
	if n == 0 {
		b.WriteString("no samples\n")
		return
	}
	hitRate := func(s tsdb.Sample) (float64, bool) {
		hits, misses := s.Get(tsdb.KeyCacheHitsTotal), s.Get(tsdb.KeyCacheMissesTotal)
		if hits+misses <= 0 {
			return 0, false
		}
		return hits / (hits + misses), true
	}
	newest := h.Samples[n-1]
	if r, ok := hitRate(newest); ok {
		fmt.Fprintf(b, "lifetime hit rate: %.3f (%g bytes resident)\n", r, newest.Get(tsdb.KeyCacheBytes))
	} else {
		b.WriteString("no cache traffic yet\n")
	}
	if n < 2 {
		return
	}
	oldest := h.Samples[0]
	dHits := tsdb.Delta(newest, oldest, tsdb.KeyCacheHitsTotal)
	dMisses := tsdb.Delta(newest, oldest, tsdb.KeyCacheMissesTotal)
	if dHits+dMisses > 0 {
		first, _ := hitRate(oldest)
		last, _ := hitRate(newest)
		fmt.Fprintf(b, "window: %.0f lookups, hit rate %.3f; lifetime trend %.3f → %.3f; %g evictions\n",
			dHits+dMisses, dHits/(dHits+dMisses), first, last,
			tsdb.Delta(newest, oldest, tsdb.KeyCacheEvictionsTotal))
	}
}

func renderProfiles(b *strings.Builder, entries []profring.Entry) {
	if len(entries) == 0 {
		return
	}
	b.WriteString("\n== Profile ring ==\n")
	for _, e := range entries {
		attr := ""
		if e.Tenant != "" {
			attr += "  tenant " + e.Tenant
		}
		if e.TraceID != "" {
			attr += "  trace " + e.TraceID
		}
		fmt.Fprintf(b, "%s  #%d %s/%s  %d bytes%s\n", stamp(e.UnixNano), e.Seq, e.Kind, e.Reason, e.SizeBytes, attr)
	}
}
