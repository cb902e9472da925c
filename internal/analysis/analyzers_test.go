package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestShiftWidth(t *testing.T) {
	runFixture(t, ShiftWidth, "shiftwidth", fixtureLib)
}

func TestErrDrop(t *testing.T) {
	runFixture(t, ErrDrop, "errdrop", fixtureLib)
}

func TestNoPanicLibrary(t *testing.T) {
	runFixture(t, NoPanic, "nopanic/lib", fixtureLib)
}

func TestNoPanicCmdExempt(t *testing.T) {
	// Same calls, cmd/ package path: zero findings expected, which the
	// harness enforces because the fixture has no want comments.
	runFixture(t, NoPanic, "nopanic/cmdpkg", fixtureModPath+"/cmd/tool")
}

func TestSpanEnd(t *testing.T) {
	runFixture(t, SpanEnd, "spanend", fixtureLib)
}

func TestHotAlloc2(t *testing.T) {
	runFixture(t, HotAlloc2, "hotalloc2", fixtureLib)
}

func TestDetLint(t *testing.T) {
	runFixture(t, DetLint, "detlint", fixtureLib)
}

func TestAtomicMix(t *testing.T) {
	runFixture(t, AtomicMix, "atomicmix", fixtureLib)
}

func TestDeferLoop(t *testing.T) {
	runFixture(t, DeferLoop, "deferloop", fixtureLib)
}

func TestLintMarker(t *testing.T) {
	runFixture(t, LintMarker, "lintmarker", fixtureLib)
}

// TestLintMarkerReadsTestFiles checks that lintmarker also reports a
// stray marker in a _test.go file, which the loader never type-checks.
func TestLintMarkerReadsTestFiles(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"a.go":      "package p\n\nfunc F() int { return 1 } //lint:nopanic-ok fine\n",
		"a_test.go": "package p\n\nvar _ = F() //lint:errcmp-ok stray\n",
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join(dir, "a.go"), nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := newTypesInfo()
	tpkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{Path: "p", Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
	found := Run([]*Package{pkg}, []*Analyzer{LintMarker})
	if len(found) != 1 || filepath.Base(found[0].File) != "a_test.go" || found[0].Line != 3 ||
		!strings.Contains(found[0].Message, "errcmp") {
		t.Fatalf("findings = %v, want one errcmp finding at a_test.go:3", found)
	}
}
