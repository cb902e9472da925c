package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"strings"
)

// Selftest runs every analyzer over its fixture package under
// modRoot/internal/analysis/testdata and returns the surviving findings
// with module-root-relative paths, sorted canonically. The committed
// golden (cmd/pastrilint/testdata/selftest.golden.json) pins this
// output, so a behavior change in any analyzer — a lost finding, a
// reworded message, a broken suppression — shows up as a golden diff
// even when the unit fixtures were updated to match.
func Selftest(modRoot string) ([]Finding, error) {
	const fixtureMod = "fixture.example/mod"
	cases := []struct {
		dir     string // under internal/analysis/testdata
		pkgPath string
		names   []string // analyzer names, resolved via Select
	}{
		{"floatcmp", fixtureMod + "/internal/fixtures", []string{"floatcmp"}},
		{"shiftwidth", fixtureMod + "/internal/fixtures", []string{"shiftwidth"}},
		{"errdrop", fixtureMod + "/internal/fixtures", []string{"errdrop"}},
		{"nopanic/lib", fixtureMod + "/internal/fixtures", []string{"nopanic"}},
		{"nopanic/cmdpkg", fixtureMod + "/cmd/tool", []string{"nopanic"}},
		{"goroutinecapture", fixtureMod + "/internal/fixtures", []string{"goroutinecapture"}},
		{"telemetrydrop", fixtureMod + "/internal/fixtures", []string{"telemetrydrop"}},
		{"slogkey", fixtureMod + "/internal/fixtures", []string{"slogkey"}},
		{"spanend", fixtureMod + "/internal/fixtures", []string{"spanend"}},
		{"sloconst", fixtureMod + "/internal/fixtures", []string{"sloconst"}},
		{"hotalloc2", fixtureMod + "/internal/fixtures", []string{"hotalloc2"}},
		{"detlint", fixtureMod + "/internal/fixtures", []string{"detlint"}},
		{"atomicmix", fixtureMod + "/internal/fixtures", []string{"atomicmix"}},
		{"deferloop", fixtureMod + "/internal/fixtures", []string{"deferloop"}},
		{"lintmarker", fixtureMod + "/internal/fixtures", []string{"lintmarker"}},
	}
	fset := token.NewFileSet()
	importer := StdImporter(fset)
	var findings []Finding
	for _, c := range cases {
		pas, mas, err := Select(c.names)
		if err != nil {
			return nil, err
		}
		pkg, err := loadFixturePackage(fset, importer, modRoot, c.dir, c.pkgPath)
		if err != nil {
			return nil, fmt.Errorf("selftest %s: %w", c.dir, err)
		}
		var diags []Diagnostic
		if len(pas) > 0 {
			diags = append(diags, RunPackage(pkg, pas)...)
		}
		if len(mas) > 0 {
			diags = append(diags, RunModule([]*Package{pkg}, mas)...)
		}
		for _, d := range diags {
			// Positions are already recorded module-root-relative.
			findings = append(findings, NewFinding("", d))
		}
	}
	SortFindings(findings)
	return findings, nil
}

// loadFixturePackage type-checks one fixture directory, recording file
// positions as module-root-relative slash paths so selftest output is
// byte-identical regardless of where the checkout lives.
func loadFixturePackage(fset *token.FileSet, importer types.Importer, modRoot, dir, pkgPath string) (*Package, error) {
	rel := path.Join("internal/analysis/testdata", dir)
	full := filepath.Join(modRoot, filepath.FromSlash(rel))
	ents, err := os.ReadDir(full)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(full, e.Name()))
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(fset, path.Join(rel, e.Name()), src,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no fixture files in %s", full)
	}
	info := newTypesInfo()
	conf := &types.Config{Importer: importer}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking: %w", err)
	}
	return &Package{
		Path:    pkgPath,
		ModPath: "fixture.example/mod",
		Dir:     full,
		Fset:    fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}, nil
}
