// Command benchdiff compares two labeled benchmark documents produced
// by benchjson, benchstat-style: per-benchmark medians, percentage
// deltas, and a regression verdict. It is the perf gate of `make
// verify`/CI — a tracked kernel whose median worsens by more than
// -threshold percent fails the run, so the PR-4 zero-allocation wins
// cannot silently erode.
//
// Usage:
//
//	benchdiff [-metric ns/op] [-threshold 10] [-noise 5] [-bench regex] OLD[:label] NEW[:label]
//
// Each argument is a benchjson document path with an optional section
// label (default "current"), e.g.
//
//	benchdiff BENCH_PR4.json:baseline_pre_pr4 BENCH.json
//
// Repeated -count runs of one benchmark are reduced to their median,
// which is what makes the gate robust to scheduler noise; deltas whose
// magnitude stays within -noise percent are reported as unchanged (~).
// Rate metrics (units containing "/s") count as improvements when they
// increase; cost metrics (ns/op, B/op, allocs/op) when they decrease.
//
// -minspeedup flips the gate's direction: instead of failing on
// regressions, it fails when NEW does not beat OLD by at least the
// given factor (old/new for cost metrics, new/old for rates). Combined
// with -bench it turns two committed sections into a perf record — the
// fused-pipeline PR pins its ≥1.3× (ff|ff) win this way:
//
//	benchdiff -bench 'FF/serial$' -minspeedup 1.3 \
//	    BENCH_PR9.json:baseline_staged BENCH_PR9.json:current
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"text/tabwriter"
)

// Result, Section and Document mirror cmd/benchjson's JSON schema; the
// two tools stay in sync through the format-stability test there.
type Result struct {
	Name    string             `json:"name"`
	Procs   int                `json:"procs"`
	N       int64              `json:"n"`
	Metrics map[string]float64 `json:"metrics"`
}

type Section struct {
	Date    string   `json:"date"`
	Go      string   `json:"go"`
	Flags   string   `json:"flags,omitempty"`
	Results []Result `json:"results"`
}

type Document struct {
	Comment  string              `json:"comment,omitempty"`
	Sections map[string]*Section `json:"sections"`
}

// diffOpts carries the parsed flags; tests construct it directly.
type diffOpts struct {
	metric     string
	threshold  float64 // regression gate, percent
	noise      float64 // display/ignore band, percent
	bench      string  // benchmark name filter (regexp)
	minSpeedup float64 // record gate: required improvement factor (0 = off)
}

func main() {
	var (
		metric     = flag.String("metric", "ns/op", "metric to compare")
		threshold  = flag.Float64("threshold", 10, "fail when a benchmark worsens by more than this percent")
		noise      = flag.Float64("noise", 5, "treat deltas within this percent as unchanged")
		bench      = flag.String("bench", "", "compare only benchmarks matching this regexp")
		minSpeedup = flag.Float64("minspeedup", 0, "fail when NEW does not beat OLD by at least this factor (0 disables)")
	)
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [flags] OLD.json[:label] NEW.json[:label]")
		os.Exit(2)
	}
	o := diffOpts{metric: *metric, threshold: *threshold, noise: *noise, bench: *bench, minSpeedup: *minSpeedup}
	if err := run(o, flag.Arg(0), flag.Arg(1), os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}
}

// splitArg separates a document argument into path and section label;
// a missing label means "current".
func splitArg(arg string) (path, label string) {
	if i := strings.LastIndex(arg, ":"); i >= 0 {
		return arg[:i], arg[i+1:]
	}
	return arg, "current"
}

// loadSection reads one labeled section out of a benchjson document.
func loadSection(arg string) (*Section, string, error) {
	path, label := splitArg(arg)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var doc Document
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, "", fmt.Errorf("parsing %s: %v", path, err)
	}
	sec := doc.Sections[label]
	if sec == nil {
		var have []string
		for l := range doc.Sections {
			have = append(have, l)
		}
		sort.Strings(have)
		return nil, "", fmt.Errorf("%s has no section %q (sections: %s)", path, label, strings.Join(have, ", "))
	}
	return sec, path + ":" + label, nil
}

// medians reduces a section's repeated runs to one median value per
// benchmark name for the chosen metric. Benchmarks that never report
// the metric are skipped.
func medians(sec *Section, metric string, filter *regexp.Regexp) map[string]float64 {
	byName := map[string][]float64{}
	for _, r := range sec.Results {
		if filter != nil && !filter.MatchString(r.Name) {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			byName[r.Name] = append(byName[r.Name], v)
		}
	}
	out := make(map[string]float64, len(byName))
	for name, vs := range byName {
		sort.Float64s(vs)
		n := len(vs)
		if n%2 == 1 {
			out[name] = vs[n/2]
		} else {
			out[name] = (vs[n/2-1] + vs[n/2]) / 2
		}
	}
	return out
}

// higherIsBetter reports the improvement direction of a metric: rates
// (anything per second) improve upward, costs (time, bytes, allocs per
// op) improve downward.
func higherIsBetter(metric string) bool { return strings.HasSuffix(metric, "/s") }

func run(o diffOpts, oldArg, newArg string, w io.Writer) error {
	var filter *regexp.Regexp
	if o.bench != "" {
		var err error
		if filter, err = regexp.Compile(o.bench); err != nil {
			return fmt.Errorf("bad -bench regexp: %v", err)
		}
	}
	oldSec, oldName, err := loadSection(oldArg)
	if err != nil {
		return err
	}
	newSec, newName, err := loadSection(newArg)
	if err != nil {
		return err
	}
	oldMed := medians(oldSec, o.metric, filter)
	newMed := medians(newSec, o.metric, filter)

	var names []string
	for name := range oldMed {
		if _, ok := newMed[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no common benchmarks reporting %q between %s and %s", o.metric, oldName, newName)
	}
	sort.Strings(names)

	up := higherIsBetter(o.metric)
	if o.minSpeedup > 0 {
		return runRecord(o, up, names, oldMed, newMed, oldName, newName, w)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "benchmark\t%s old\t%s new\tdelta\t\n", o.metric, o.metric)
	var regressions []string
	for _, name := range names {
		ov, nv := oldMed[name], newMed[name]
		delta := 0.0
		if ov != 0 {
			delta = (nv - ov) / ov * 100
		}
		worsened := delta > 0 != up && delta != 0
		verdict := "~"
		switch {
		case math.Abs(delta) <= o.noise:
			verdict = "~"
		case worsened && math.Abs(delta) > o.threshold:
			verdict = "REGRESSION"
			regressions = append(regressions, fmt.Sprintf("%s %+.1f%%", name, delta))
		case worsened:
			verdict = "worse"
		default:
			verdict = "better"
		}
		fmt.Fprintf(tw, "%s\t%.4g\t%.4g\t%+.1f%%\t%s\n", name, ov, nv, delta, verdict)
	}
	tw.Flush()
	fmt.Fprintf(w, "%d benchmarks compared (%s vs %s, metric %s, gate %.0f%%, noise %.0f%%)\n",
		len(names), oldName, newName, o.metric, o.threshold, o.noise)
	if len(regressions) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond %.0f%%: %s",
			len(regressions), o.threshold, strings.Join(regressions, "; "))
	}
	return nil
}

// runRecord is the -minspeedup mode: every compared benchmark must have
// improved from OLD to NEW by at least the required factor. The
// improvement factor is old/new for cost metrics and new/old for rates,
// so "1.3" always reads as "1.3× better".
func runRecord(o diffOpts, up bool, names []string, oldMed, newMed map[string]float64, oldName, newName string, w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "benchmark\t%s old\t%s new\tspeedup\t\n", o.metric, o.metric)
	var shortfalls []string
	for _, name := range names {
		ov, nv := oldMed[name], newMed[name]
		factor := math.Inf(1)
		switch {
		case up && ov != 0:
			factor = nv / ov
		case !up && nv != 0:
			factor = ov / nv
		}
		verdict := "ok"
		if !(factor >= o.minSpeedup) { // NaN counts as a shortfall
			verdict = "SHORTFALL"
			shortfalls = append(shortfalls, fmt.Sprintf("%s %.2fx", name, factor))
		}
		fmt.Fprintf(tw, "%s\t%.4g\t%.4g\t%.2fx\t%s\n", name, ov, nv, factor, verdict)
	}
	tw.Flush()
	fmt.Fprintf(w, "%d benchmarks compared (%s vs %s, metric %s, required speedup %.2fx)\n",
		len(names), oldName, newName, o.metric, o.minSpeedup)
	if len(shortfalls) > 0 {
		return fmt.Errorf("%d benchmark(s) short of the required %.2fx speedup: %s",
			len(shortfalls), o.minSpeedup, strings.Join(shortfalls, "; "))
	}
	return nil
}
