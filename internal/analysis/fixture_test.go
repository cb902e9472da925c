package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// Fixture tests: each analyzer runs over a small testdata package and
// its findings are compared against `// want "regexp"` comments on
// the expected lines — the same convention as x/tools analysistest,
// reimplemented on the stdlib. Fixtures import only the standard
// library so the shared source-mode importer can resolve everything.

var fixtureFset = token.NewFileSet()

var fixtureImporter = sync.OnceValue(func() types.Importer {
	return importer.ForCompiler(fixtureFset, "source", nil)
})

const (
	fixtureModPath = "fixture.example/mod"
	fixtureLib     = fixtureModPath + "/internal/fixtures"
)

var wantRe = regexp.MustCompile(`want "((?:[^"\\]|\\.)*)"`)

// loadFixture type-checks the package at testdata/<dir> under import
// path pkgPath. File positions are recorded as module-root-relative
// slash paths, so findings read the same wherever the checkout lives.
func loadFixture(t testing.TB, dir, pkgPath string) *Package {
	t.Helper()
	full := filepath.Join("testdata", filepath.FromSlash(dir))
	ents, err := os.ReadDir(full)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(full, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fixtureFset, path.Join("internal/analysis/testdata", dir, e.Name()), src,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", full)
	}
	info := newTypesInfo()
	conf := &types.Config{Importer: fixtureImporter()}
	tpkg, err := conf.Check(pkgPath, fixtureFset, files, info)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", full, err)
	}
	return &Package{
		Path:    pkgPath,
		ModPath: fixtureModPath,
		Fset:    fixtureFset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}
}

// runFixture runs a over testdata/<dir> and diffs its findings against
// the `// want` comments. The flow analyzers see the one package as
// the whole program.
func runFixture(t *testing.T, a *Analyzer, dir, pkgPath string) {
	t.Helper()
	pkg := loadFixture(t, dir, pkgPath)
	diffWants(t, pkg, Run([]*Package{pkg}, []*Analyzer{a}))
}

func diffWants(t *testing.T, pkg *Package, found []Finding) {
	t.Helper()
	wants := collectWants(t, pkg.Files)
	matched := make(map[*wantExpectation]bool)
	for _, f := range found {
		key := fmt.Sprintf("%s:%d", f.File, f.Line)
		ok := false
		for _, w := range wants[key] {
			if w.re.MatchString(f.Message) {
				matched[w] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !matched[w] {
				t.Errorf("%s: expected finding matching %q, got none", key, w.re)
			}
		}
	}
}

type wantExpectation struct{ re *regexp.Regexp }

func collectWants(t *testing.T, files []*ast.File) map[string][]*wantExpectation {
	t.Helper()
	out := make(map[string][]*wantExpectation)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					pat, err := strconv.Unquote(`"` + m[1] + `"`)
					if err != nil {
						t.Fatalf("bad want pattern %q: %v", m[1], err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("bad want regexp %q: %v", pat, err)
					}
					pos := fixtureFset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					out[key] = append(out[key], &wantExpectation{re: re})
				}
			}
		}
	}
	return out
}
