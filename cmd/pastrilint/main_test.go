package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// TestRepoIsLintClean runs the full analyzer suite over the whole
// module, exactly as `make lint` does, and fails on any finding. New
// findings are fixed or annotated with //lint:<analyzer>-ok — see
// README.md "Static analysis & invariants".
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checking the whole module is slow")
	}
	findings, err := Lint(".", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("finding: %s", f)
	}
}

func TestRunListsAnalyzers(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("pastrilint -list exited %d: %s", code, errOut.String())
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := []string{"shiftwidth", "errdrop", "nopanic", "spanend", "lintmarker",
		"hotalloc2", "detlint", "atomicmix", "deferloop"}
	if !slices.Equal(names, want) {
		t.Errorf("-list names %v, want %v", names, want)
	}
	for _, retired := range []string{"floatcmp", "goroutinecapture", "slogkey", "sloconst"} {
		if strings.Contains(out.String(), retired) {
			t.Errorf("-list still mentions the retired %s analyzer", retired)
		}
	}
}
