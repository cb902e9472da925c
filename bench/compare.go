package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"time"
)

// resultSet is the record of -repeat: every run, and per workload and
// metric the median and quartiles over the runs.
type resultSet struct {
	Runs    []*result                      `json:"runs"`
	Failed  []string                       `json:"failed_runs,omitempty"`
	Summary map[string]map[string]*summary `json:"summary"`
}

type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// spread is the distance between the quartiles as a share of the median.
func (s *summary) spread() float64 { return (s.Q3 - s.Q1) / math.Abs(s.Median) }

// runSet runs each workload o.repeat times, each run in its own
// process, and writes the set with its summary.
func runSet(spec *benchSpec, root string, o options, workloads []string, stdout io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pastribench:", err)
		return 1
	}
	dir := filepath.Join(root, ".bench_build", "results", time.Now().Format("set-20060102-150405"))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "pastribench:", err)
		return 1
	}
	set := &resultSet{}
	for _, w := range workloads {
		for k := range max(o.repeat, 1) {
			seed := o.seed + uint64(k)
			file := filepath.Join(dir, fmt.Sprintf("%s-s%d.json", w, seed))
			cmd := exec.Command(self, childArgs(root, o, w, seed, file)...)
			cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
			if err := cmd.Run(); err != nil {
				set.Failed = append(set.Failed, fmt.Sprintf("%s seed %d: %v", w, seed, err))
			}
			raw, err := os.ReadFile(file)
			if err != nil {
				continue
			}
			var res result
			if err := json.Unmarshal(raw, &res); err != nil {
				set.Failed = append(set.Failed, fmt.Sprintf("%s seed %d: %v", w, seed, err))
				continue
			}
			set.Runs = append(set.Runs, &res)
		}
	}
	set.Summary = summarize(set.Runs)
	out := o.out
	if out == "" {
		out = dir + ".json"
	}
	if err := writeJSON(out, set); err != nil {
		fmt.Fprintln(os.Stderr, "pastribench:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "pastribench: result set written to %s\n", out)

	correct := len(set.Failed) == 0
	var attempted, failed int64
	for _, r := range set.Runs {
		correct = correct && r.Correct
		attempted += r.Attempted
		failed += r.Failed
	}
	metrics := make(map[string]any)
	for _, w := range workloads {
		for _, name := range sortedKeys(set.Summary[w]) {
			s := set.Summary[w][name]
			fmt.Fprintf(stdout, "%-13s %-38s median %12.6g %-9s q1 %12.6g q3 %12.6g spread %6.2f%% n=%d\n",
				w, name, s.Median, s.Unit, s.Q1, s.Q3, 100*s.spread(), len(s.Values))
			metrics[w+"."+name] = map[string]any{"value": s.Median, "unit": s.Unit}
		}
	}
	for _, f := range set.Failed {
		fmt.Fprintln(os.Stderr, "pastribench: failed run:", f)
	}
	raw, _ := json.Marshal(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}) //lint:errdrop-ok maps of finite floats always marshal
	fmt.Fprintf(stdout, "%s\n", raw)
	if !correct {
		return 1
	}
	return 0
}

// summarize gives per workload and metric the median and quartiles over
// runs: of the metrics in each run's verdict line, and of the unscaled
// values of the host-scaled ones.
func summarize(runs []*result) map[string]map[string]*summary {
	out := make(map[string]map[string]*summary)
	for _, r := range runs {
		byMetric := out[r.Workload]
		if byMetric == nil {
			byMetric = make(map[string]*summary)
			out[r.Workload] = byMetric
		}
		add := func(name string, m metric) {
			s := byMetric[name]
			if s == nil {
				s = &summary{Unit: m.Unit}
				byMetric[name] = s
			}
			s.Values = append(s.Values, m.Value)
		}
		for name, m := range r.Metrics {
			add(name, m)
			if u, ok := r.Measured[name+".unscaled"]; ok {
				add(name+".unscaled", u)
			}
		}
	}
	for _, byMetric := range out {
		for _, s := range byMetric {
			s.Q1, s.Median, s.Q3 = quartiles(s.Values)
		}
	}
	return out
}

// compareSets compares result set b (a change) with set a (its parent)
// and returns the exit code.
func compareSets(spec *benchSpec, aPath, bPath string, stdout io.Writer) int {
	a, err := loadSet(aPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pastribench:", err)
		return 2
	}
	b, err := loadSet(bPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pastribench:", err)
		return 2
	}
	return compare(spec, a, b, stdout)
}

// compare prints a verdict for every metric of the sets' mode (end-to-end
// or, for traced sets, per-layer) on every workload either set holds. An
// end-to-end metric is regressed when b's median is worse than a's by
// more than the metric's bound, and unresolved when either set's quartile
// spread is wider than the bound, unless every run of b beats every run
// of a. setup_s is allowed at least 0.05 s however small its median.
// Layer metrics have no bound and are listed for attribution only. A
// scaled timing that is regressed by its .unscaled values but not by its
// scaled ones, or the reverse, is flagged, so a change the host-speed
// scaling hides still shows. The result is 1 when any cell is regressed,
// unresolved or missing from one set, when either set holds a failed or
// incorrect run, or when the sets differ in mode or run length;
// otherwise 0.
func compare(spec *benchSpec, a, b *resultSet, stdout io.Writer) int {
	problems := append(a.problems("a"), b.problems("b")...)
	traced := false
	if len(a.Runs) > 0 {
		traced = a.Runs[0].Trace
	}
	var seconds []float64
	mixed := false
	for _, r := range slices.Concat(a.Runs, b.Runs) {
		seconds = append(seconds, r.Provenance.Seconds)
		mixed = mixed || r.Trace != traced
	}
	if mixed {
		problems = append(problems, "the sets mix traced and untraced runs")
	}
	slices.Sort(seconds)
	if seconds = slices.Compact(seconds); len(seconds) > 1 {
		problems = append(problems, fmt.Sprintf("the runs were measured for different lengths: %v s", seconds))
	}
	group := spec.EndToEnd
	if traced {
		group = spec.PerLayer
	}

	bad, masked := 0, 0
	fmt.Fprintf(stdout, "%-13s %-38s %12s %12s %8s %8s %8s  %s\n", "workload", "metric", "median a", "median b", "worse", "bound", "spread", "verdict")
	for _, w := range spec.workloadNames() {
		if a.Summary[w] == nil && b.Summary[w] == nil {
			continue
		}
		for _, m := range group {
			sa, sb := a.Summary[w][m.Name], b.Summary[w][m.Name]
			if sa == nil || sb == nil {
				problems = append(problems, fmt.Sprintf("%s %s: in only one of the sets", w, m.Name))
				continue
			}
			worse, spread, v := verdict(m, sa, sb)
			if v == "regressed" || v == "unresolved" {
				bad++
			}
			if ua, ub := a.Summary[w][m.Name+".unscaled"], b.Summary[w][m.Name+".unscaled"]; ua != nil && ub != nil {
				if _, _, uv := verdict(m, ua, ub); (uv == "regressed") != (v == "regressed") {
					v += ", unscaled " + uv
					masked++
				}
			}
			fmt.Fprintf(stdout, "%-13s %-38s %12.6g %12.6g %7.2f%% %7.2f%% %7.2f%%  %s\n",
				w, m.Name, sa.Median, sb.Median, 100*worse, 100*m.Bound, 100*spread, v)
		}
	}
	for _, p := range problems {
		fmt.Fprintln(stdout, "problem:", p)
	}
	if masked > 0 {
		fmt.Fprintf(stdout, "%d cells where the host-speed scaling changes the verdict; check the host's drift before trusting them\n", masked)
	}
	if bad > 0 || len(problems) > 0 {
		fmt.Fprintf(stdout, "%d cells regressed or unresolved, %d problems\n", bad, len(problems))
		return 1
	}
	return 0
}

// problems lists the set's failed runs and runs with a wrong output.
func (s *resultSet) problems(label string) []string {
	var out []string
	if len(s.Runs) == 0 {
		out = append(out, label+": no runs")
	}
	for _, f := range s.Failed {
		out = append(out, fmt.Sprintf("%s: failed run: %s", label, f))
	}
	for _, r := range s.Runs {
		if !r.Correct || r.Failed > 0 {
			out = append(out, fmt.Sprintf("%s: %s seed %d: %d of %d operations failed: %s", label, r.Workload, r.Seed, r.Failed, r.Attempted, r.FirstError))
		}
	}
	return out
}

// verdict compares one metric's summaries: how much worse b's median is
// than a's as a share of a's (negative when better), the wider of the two
// quartile spreads, and "regressed", "unresolved" or "ok" — or "-" for a
// metric without a bound.
func verdict(m metricSpec, a, b *summary) (worse, spread float64, v string) {
	worse = (b.Median - a.Median) / math.Abs(a.Median)
	if m.Better == "higher" {
		worse = -worse
	}
	spread = max(a.spread(), b.spread())
	if m.Bound <= 0 {
		return worse, spread, "-"
	}
	allowed := m.Bound
	if m.Name == "setup_s" {
		allowed = max(allowed, 0.05/a.Median)
	}
	switch {
	case worse > allowed:
		return worse, spread, "regressed"
	case spread > allowed && !allBetter(b.Values, a.Values, m.Better == "higher"):
		return worse, spread, "unresolved"
	}
	return worse, spread, "ok"
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(b, a []float64, higher bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if higher {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}

func loadSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Summary == nil {
		return nil, fmt.Errorf("%s is not a -repeat result set", path)
	}
	return &s, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
