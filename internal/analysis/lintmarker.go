package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// LintMarker keeps suppression markers honest. A //lint:<name>-ok
// comment whose name is neither a registered analyzer nor the legacy
// hotalloc alias that hotalloc2 still honors suppresses nothing, yet
// tells the reader that some check was considered and waived. The
// package's _test.go files, which no other analyzer reads, are scanned
// too.
var LintMarker = &Analyzer{
	Name: "lintmarker",
	Doc:  "flag //lint:<name>-ok markers that name no registered analyzer",
}

// The run function reads the registry, which lists LintMarker itself,
// so it is attached after package initialization.
func init() { LintMarker.Run = runLintMarker }

// markerNames is every name a //lint:<name>-ok marker may carry.
func markerNames() map[string]bool {
	names := make(map[string]bool)
	for _, a := range All() {
		names[a.Name] = true
	}
	for _, a := range AllModule() {
		names[a.Name] = true
		for _, alias := range a.Suppress {
			names[alias] = true
		}
	}
	return names
}

func runLintMarker(p *Pass) {
	known := markerNames()
	files := p.Files
	if len(p.Files) > 0 {
		// Every file of the package was parsed from its directory. An
		// unreadable directory or test file fails the build; the linter
		// only reports markers.
		dir := filepath.Dir(p.Fset.Position(p.Files[0].Pos()).Filename)
		ents, _ := os.ReadDir(dir) //lint:errdrop-ok see above
		for _, e := range ents {
			if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			f, err := parser.ParseFile(p.Fset, filepath.Join(dir, e.Name()), nil,
				parser.ParseComments|parser.SkipObjectResolution)
			if err == nil {
				files = append(files, f)
			}
		}
	}
	for _, f := range files {
		checkMarkers(p, f, known)
	}
}

func checkMarkers(p *Pass, f *ast.File, known map[string]bool) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.Contains(c.Text, "lint:") {
				continue
			}
			for _, m := range suppressRe.FindAllStringSubmatchIndex(c.Text, -1) {
				if name := c.Text[m[2]:m[3]]; !known[name] {
					p.Reportf(c.Pos()+token.Pos(m[0]),
						"//lint:%s-ok names no analyzer, so it suppresses nothing; fix the name or delete the marker", name)
				}
			}
		}
	}
}
