// Package analysis is a stdlib-only static-analysis framework plus a
// suite of PaSTRI-specific analyzers. The compressor's headline
// guarantee — decompressed values honor the absolute error bound
// unconditionally — rests on invariants the Go compiler does not check:
// no exact float equality in bound logic, no variable shifts that can
// silently reach the operand width, no dropped bitio/container errors,
// no panics in library code, and no mutable-state captures in the
// parallel block fan-out. Each analyzer here machine-checks one of
// those invariants so hot paths can be refactored aggressively without
// reviewer vigilance being the only safety net.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis in
// miniature (Analyzer, Pass, fixture tests with `// want` comments) but
// is built only on go/parser, go/types and go/importer so the module
// keeps zero external dependencies.
//
// Findings are suppressed by annotating the offending line (or the line
// directly above it) with a marker comment:
//
//	//lint:floatcmp-ok        exact comparison is intentional here
//
// The marker names the analyzer; the lintmarker analyzer reports a
// marker that names none. Test files are not analyzed (lintmarker only
// reads their comments): fixtures use dedicated testdata packages
// instead.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// A Diagnostic is one finding produced by an analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// An Analyzer checks one invariant over a type-checked package.
type Analyzer struct {
	Name string // short lower-case identifier, used in //lint:<name>-ok markers
	Doc  string // one-line description of the guarded invariant
	Run  func(*Pass)
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	PkgPath   string // import path ("" for ad-hoc fixture packages)
	ModPath   string // module path the package belongs to
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the per-package analyzer suite in reporting order. The
// interprocedural analyzers live in AllModule; the first-generation
// hotalloc analyzer has been subsumed by hotalloc2 there, rebased on
// the internal/analysis/flow engine.
func All() []*Analyzer {
	return []*Analyzer{
		FloatCmp,
		ShiftWidth,
		ErrDrop,
		NoPanic,
		GoroutineCapture,
		SlogKey,
		SpanEnd,
		SloConst,
		LintMarker,
	}
}

// ByName resolves a comma-separated analyzer name list against the
// registry.
func ByName(names []string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// RunPackage applies analyzers to pkg and returns the surviving
// diagnostics: findings on lines carrying a matching //lint:<name>-ok
// marker (or directly below one) are dropped. Results are sorted by
// position.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			PkgPath:   pkg.Path,
			ModPath:   pkg.ModPath,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			diags:     &diags,
		}
		a.Run(pass)
	}
	sup := collectSuppressions(pkg.Fset, pkg.Files)
	kept := diags[:0]
	for _, d := range diags {
		if !sup.suppressed(d) {
			kept = append(kept, d)
		}
	}
	sortDiagnostics(kept)
	return kept
}
