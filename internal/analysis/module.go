package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"

	"repro/internal/analysis/flow"
)

// A ModuleAnalyzer checks an invariant that spans packages: it sees
// every loaded package at once plus the flow engine's whole-program
// view (call graph, hot-path propagation). The second-generation
// analyzers (hotalloc2, detlint, atomicmix, deferloop) are module
// analyzers because their invariants cross call boundaries.
type ModuleAnalyzer struct {
	Name string // identifier used in //lint:<name>-ok markers
	Doc  string
	Run  func(*ModulePass)
}

// A ModulePass carries the loaded module through one module analyzer.
type ModulePass struct {
	Analyzer *ModuleAnalyzer
	Fset     *token.FileSet
	Packages []*Package
	Program  *flow.Program

	diags *[]Diagnostic
}

// PositionString formats pos with a module-root-relative path, so
// diagnostics that embed a second location stay machine-independent.
func (p *ModulePass) PositionString(pos token.Pos) string {
	position := p.Fset.Position(pos)
	if len(p.Packages) > 0 && p.Packages[0].ModRoot != "" {
		if rel, err := filepath.Rel(p.Packages[0].ModRoot, position.Filename); err == nil && !isOutside(rel) {
			position.Filename = filepath.ToSlash(rel)
		}
	}
	return position.String()
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// AllModule returns the module-analyzer suite in reporting order.
func AllModule() []*ModuleAnalyzer {
	return []*ModuleAnalyzer{
		HotAlloc2,
		DetLint,
		AtomicMix,
		DeferLoop,
	}
}

// Select resolves analyzer names against both registries. Unknown
// names are an error; each name resolves to exactly one kind.
func Select(names []string) ([]*Analyzer, []*ModuleAnalyzer, error) {
	pkgBy := make(map[string]*Analyzer)
	for _, a := range All() {
		pkgBy[a.Name] = a
	}
	modBy := make(map[string]*ModuleAnalyzer)
	for _, a := range AllModule() {
		modBy[a.Name] = a
	}
	var pas []*Analyzer
	var mas []*ModuleAnalyzer
	for _, n := range names {
		switch {
		case pkgBy[n] != nil:
			pas = append(pas, pkgBy[n])
		case modBy[n] != nil:
			mas = append(mas, modBy[n])
		default:
			return nil, nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
	}
	return pas, mas, nil
}

// FlowProgram adapts the loaded packages into the flow engine's
// whole-program view. All packages must share one FileSet (they do
// when produced by a single Loader).
func FlowProgram(pkgs []*Package) *flow.Program {
	if len(pkgs) == 0 {
		return flow.BuildProgram(token.NewFileSet(), nil)
	}
	infos := make([]*flow.PackageInfo, len(pkgs))
	for i, p := range pkgs {
		infos[i] = &flow.PackageInfo{
			Path:  p.Path,
			Files: p.Files,
			Pkg:   p.Types,
			Info:  p.Info,
		}
	}
	return flow.BuildProgram(pkgs[0].Fset, infos)
}

// RunModule applies module analyzers to the whole loaded package set
// and returns the surviving diagnostics, with //lint:<name>-ok
// suppressions (and each analyzer's legacy markers) applied and the
// result sorted by position.
func RunModule(pkgs []*Package, analyzers []*ModuleAnalyzer) []Diagnostic {
	if len(pkgs) == 0 || len(analyzers) == 0 {
		return nil
	}
	prog := FlowProgram(pkgs)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &ModulePass{
			Analyzer: a,
			Fset:     pkgs[0].Fset,
			Packages: pkgs,
			Program:  prog,
			diags:    &diags,
		}
		a.Run(pass)
	}
	sup := &suppressionSet{byFile: make(map[string]map[int]map[string]bool)}
	for _, pkg := range pkgs {
		mergeSuppressions(sup, collectSuppressions(pkg.Fset, pkg.Files))
	}
	kept := diags[:0]
	for _, d := range diags {
		if !sup.suppressed(d) {
			kept = append(kept, d)
		}
	}
	sortDiagnostics(kept)
	return kept
}

func mergeSuppressions(dst, src *suppressionSet) {
	for file, lines := range src.byFile {
		dl := dst.byFile[file]
		if dl == nil {
			dst.byFile[file] = lines
			continue
		}
		for line, set := range lines {
			ds := dl[line]
			if ds == nil {
				dl[line] = set
				continue
			}
			for n := range set {
				ds[n] = true
			}
		}
	}
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}
