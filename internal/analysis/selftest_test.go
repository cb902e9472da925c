package analysis

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestSelftestMatchesGolden runs every analyzer over its fixture
// package and compares the findings, as JSON, with
// testdata/selftest.golden.json. A behavior change in any analyzer — a
// lost finding, a reworded message, a broken suppression — shows up as
// a golden diff even when the `// want` comments were updated to
// match. On a deliberate change, replace the golden with the output
// this test prints.
func TestSelftestMatchesGolden(t *testing.T) {
	cases := []struct {
		a            *Analyzer
		dir, pkgPath string
	}{
		{ShiftWidth, "shiftwidth", fixtureLib},
		{ErrDrop, "errdrop", fixtureLib},
		{NoPanic, "nopanic/lib", fixtureLib},
		{NoPanic, "nopanic/cmdpkg", fixtureModPath + "/cmd/tool"},
		{SpanEnd, "spanend", fixtureLib},
		{LintMarker, "lintmarker", fixtureLib},
		{HotAlloc2, "hotalloc2", fixtureLib},
		{DetLint, "detlint", fixtureLib},
		{AtomicMix, "atomicmix", fixtureLib},
		{DeferLoop, "deferloop", fixtureLib},
	}
	var found []Finding
	for _, c := range cases {
		found = append(found, Run([]*Package{loadFixture(t, c.dir, c.pkgPath)}, []*Analyzer{c.a})...)
	}
	slices.SortFunc(found, compareFindings)
	got, err := json.MarshalIndent(found, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden, err := os.ReadFile(filepath.Join("testdata", "selftest.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("selftest findings differ from testdata/selftest.golden.json; got:\n%s", got)
	}
}
