// Package analysis is a stdlib-only static-analysis framework plus the
// analyzers that guard PaSTRI's codec and service invariants. The
// compressor's headline guarantee — decompressed values honor the
// absolute error bound unconditionally — and its self-describing,
// block-independent streams rest on invariants the Go compiler does
// not check: no variable shifts that can silently reach the operand
// width, no dropped bitio/container errors, no panics in library code,
// spans that always end, and block kernels that neither allocate nor
// depend on anything nondeterministic. Each analyzer here
// machine-checks one of those invariants so hot paths can be
// refactored aggressively without reviewer vigilance being the only
// safety net.
//
// The framework mirrors golang.org/x/tools/go/analysis in miniature
// (Analyzer, Pass, fixture tests with `// want` comments) but is built
// only on go/parser, go/types and go/importer so the module keeps zero
// external dependencies. Run visits the loaded packages once per
// analyzer: a one-package check is adapted by perPackage, and the
// interprocedural analyzers read every package plus the flow engine's
// whole-program view (call graph, hot-path propagation).
//
// Findings are suppressed by annotating the offending line (or the line
// directly above it) with a marker comment:
//
//	//lint:nopanic-ok         unreachable API-contract guard
//
// The marker names the analyzer; the lintmarker analyzer reports a
// marker that names none. Test files are not analyzed (lintmarker only
// reads their comments): fixtures use dedicated testdata packages
// instead.
package analysis

import (
	"cmp"
	"fmt"
	"go/token"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/analysis/flow"
)

// An Analyzer checks one invariant over the loaded packages.
type Analyzer struct {
	Name string // short lower-case identifier, used in //lint:<name>-ok markers
	Doc  string // one-line description of the guarded invariant
	Run  func(*Pass)
}

// A Pass carries the loaded packages through one analyzer. The embedded
// Package is the one a perPackage check is visiting; interprocedural
// analyzers leave it nil.
type Pass struct {
	*Package
	Analyzer *Analyzer
	Fset     *token.FileSet
	Packages []*Package
	Program  *flow.Program

	found *[]Finding
}

// A Finding is one report of an analyzer. Run returns File relative to
// the module root with forward slashes, so printed findings and the
// selftest golden are stable across checkouts and operating systems.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the finding in the classic compiler format.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	at := p.Fset.Position(pos)
	*p.found = append(*p.found, Finding{
		Analyzer: p.Analyzer.Name,
		File:     at.Filename,
		Line:     at.Line,
		Col:      at.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// PositionString formats pos with a module-root-relative path, so
// messages that embed a second location stay machine-independent.
func (p *Pass) PositionString(pos token.Pos) string {
	at := p.Fset.Position(pos)
	at.Filename = relPath(p.Packages[0].ModRoot, at.Filename)
	return at.String()
}

// perPackage adapts a check of one package, the Pass's embedded
// Package, into a Run that visits every loaded package in turn.
func perPackage(check func(*Pass)) func(*Pass) {
	return func(p *Pass) {
		for _, pkg := range p.Packages {
			p.Package = pkg
			check(p)
		}
	}
}

// All returns the suite in reporting order: the one-package checks,
// then the interprocedural ones built on the flow engine.
func All() []*Analyzer {
	return []*Analyzer{
		ShiftWidth,
		ErrDrop,
		NoPanic,
		SpanEnd,
		LintMarker,
		HotAlloc2,
		DetLint,
		AtomicMix,
		DeferLoop,
	}
}

// Run applies analyzers to pkgs, which must share one FileSet (they do
// when one Loader loaded them). It builds the flow program once, runs
// each analyzer once, drops findings on lines that carry a matching
// //lint:<name>-ok marker (or sit directly below one), and returns the
// rest with module-root-relative files, ordered by file, line, column
// and analyzer.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	if len(pkgs) == 0 {
		return nil
	}
	infos := make([]*flow.PackageInfo, len(pkgs))
	for i, pkg := range pkgs {
		infos[i] = &flow.PackageInfo{Path: pkg.Path, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info}
	}
	fset := pkgs[0].Fset
	prog := flow.BuildProgram(fset, infos)
	var found []Finding
	for _, a := range analyzers {
		a.Run(&Pass{Analyzer: a, Fset: fset, Packages: pkgs, Program: prog, found: &found})
	}
	sup := collectSuppressions(fset, pkgs)
	kept := found[:0]
	for _, f := range found {
		if !sup.suppressed(f) {
			f.File = relPath(pkgs[0].ModRoot, f.File)
			kept = append(kept, f)
		}
	}
	slices.SortFunc(kept, compareFindings)
	return kept
}

func compareFindings(a, b Finding) int {
	return cmp.Or(strings.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line),
		cmp.Compare(a.Col, b.Col), strings.Compare(a.Analyzer, b.Analyzer),
		strings.Compare(a.Message, b.Message))
}

// relPath rewrites file relative to the module root with forward
// slashes. An empty root means positions are already relative.
func relPath(root, file string) string {
	if root != "" {
		if rel, err := filepath.Rel(root, file); err == nil && filepath.IsLocal(rel) {
			file = rel
		}
	}
	return filepath.ToSlash(file)
}
