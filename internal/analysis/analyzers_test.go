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

func TestFloatCmp(t *testing.T) {
	runFixture(t, FloatCmp, "floatcmp", fixtureModPath+"/internal/fixtures")
}

func TestShiftWidth(t *testing.T) {
	runFixture(t, ShiftWidth, "shiftwidth", fixtureModPath+"/internal/fixtures")
}

func TestErrDrop(t *testing.T) {
	runFixture(t, ErrDrop, "errdrop", fixtureModPath+"/internal/fixtures")
}

func TestNoPanicLibrary(t *testing.T) {
	runFixture(t, NoPanic, "nopanic/lib", fixtureModPath+"/internal/fixtures")
}

func TestNoPanicCmdExempt(t *testing.T) {
	// Same calls, cmd/ package path: zero findings expected, which the
	// harness enforces because the fixture has no want comments.
	runFixture(t, NoPanic, "nopanic/cmdpkg", fixtureModPath+"/cmd/tool")
}

func TestGoroutineCapture(t *testing.T) {
	runFixture(t, GoroutineCapture, "goroutinecapture", fixtureModPath+"/internal/fixtures")
}

func TestSlogKey(t *testing.T) {
	runFixture(t, SlogKey, "slogkey", fixtureModPath+"/internal/fixtures")
}

func TestSpanEnd(t *testing.T) {
	runFixture(t, SpanEnd, "spanend", fixtureModPath+"/internal/fixtures")
}

func TestSloConst(t *testing.T) {
	runFixture(t, SloConst, "sloconst", fixtureModPath+"/internal/fixtures")
}

func TestHotAlloc2(t *testing.T) {
	runModuleFixture(t, HotAlloc2, "hotalloc2", fixtureModPath+"/internal/fixtures")
}

func TestDetLint(t *testing.T) {
	runModuleFixture(t, DetLint, "detlint", fixtureModPath+"/internal/fixtures")
}

func TestAtomicMix(t *testing.T) {
	runModuleFixture(t, AtomicMix, "atomicmix", fixtureModPath+"/internal/fixtures")
}

func TestDeferLoop(t *testing.T) {
	runModuleFixture(t, DeferLoop, "deferloop", fixtureModPath+"/internal/fixtures")
}

func TestLintMarker(t *testing.T) {
	runFixture(t, LintMarker, "lintmarker", fixtureModPath+"/internal/fixtures")
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
	diags := RunPackage(pkg, []*Analyzer{LintMarker})
	if len(diags) != 1 || filepath.Base(diags[0].Pos.Filename) != "a_test.go" || diags[0].Pos.Line != 3 ||
		!strings.Contains(diags[0].Message, "errcmp") {
		t.Fatalf("diagnostics = %v, want one errcmp finding at a_test.go:3", diags)
	}
}

func TestSelect(t *testing.T) {
	pas, mas, err := Select([]string{"floatcmp", "hotalloc2", "detlint"})
	if err != nil || len(pas) != 1 || len(mas) != 2 {
		t.Fatalf("Select = %v, %v, %v", pas, mas, err)
	}
	if pas[0] != FloatCmp || mas[0] != HotAlloc2 || mas[1] != DetLint {
		t.Fatal("Select resolved wrong analyzers")
	}
	if _, _, err := Select([]string{"hotalloc"}); err == nil {
		t.Fatal("Select accepted the retired hotalloc name")
	}
}

func TestByName(t *testing.T) {
	as, err := ByName([]string{"floatcmp", "nopanic"})
	if err != nil || len(as) != 2 || as[0] != FloatCmp || as[1] != NoPanic {
		t.Fatalf("ByName = %v, %v", as, err)
	}
	if _, err := ByName([]string{"nosuch"}); err == nil {
		t.Fatal("ByName accepted unknown analyzer")
	}
}
