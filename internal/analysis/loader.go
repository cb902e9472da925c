package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package ready for analysis.
// Only non-test files are loaded: the analyzers guard library
// invariants, and test files get their own conventions (exact float
// comparisons against golden values, panics via t.Fatal, ...).
type Package struct {
	Path    string // import path, e.g. "repro/internal/bitio"
	ModPath string // module path, e.g. "repro"
	ModRoot string // module root directory; "" when positions are already relative
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// Loader type-checks packages of a single module from source. Imports
// inside the module are resolved recursively by the loader itself;
// imports outside it (the standard library — this module has no other
// dependencies) are delegated to go/importer's source-mode importer.
// Everything runs off go/parser + go/types: no go/packages, no
// toolchain subprocesses.
type Loader struct {
	Fset    *token.FileSet
	modPath string
	modRoot string
	std     types.Importer
	pkgs    map[string]*loadEntry
}

type loadEntry struct {
	pkg *Package
	err error
}

// NewLoader locates the enclosing module of dir (by walking up to
// go.mod) and returns a loader rooted there.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := moduleName(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		modPath: modPath,
		modRoot: root,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*loadEntry),
	}, nil
}

// ModPath returns the module path the loader is rooted at.
func (l *Loader) ModPath() string { return l.modPath }

func moduleName(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if name, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(name), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Load resolves the given patterns ("./...", "./dir/...", "./dir", ".")
// relative to the module root and returns the matched packages,
// type-checked and sorted by import path. Directories named testdata or
// vendor and hidden/underscore directories are never descended into.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs := make(map[string]bool)
	for _, pat := range patterns {
		rec := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			rec = true
			pat = rest
			if pat == "" {
				pat = "."
			}
		} else if pat == "..." {
			rec, pat = true, "."
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(l.modRoot, pat)
		}
		fi, err := os.Stat(base)
		if err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("analysis: pattern %q does not name a directory", pat)
		}
		if rec {
			if err := walkPackageDirs(base, dirs); err != nil {
				return nil, err
			}
		} else {
			dirs[base] = true
		}
	}
	var out []*Package
	for dir := range dirs {
		has, err := hasGoFiles(dir)
		if err != nil {
			return nil, err
		}
		if !has {
			continue
		}
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

func walkPackageDirs(root string, dirs map[string]bool) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs[path] = true
		return nil
	})
}

func hasGoFiles(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range ents {
		if sourceFileWanted(e) {
			return true, nil
		}
	}
	return false, nil
}

func sourceFileWanted(e os.DirEntry) bool {
	name := e.Name()
	return !e.IsDir() && strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// buildTags is the loader's build context: host OS/arch, gc compiler,
// no optional tags. In particular `race` is false, so of a
// race_on.go/race_off.go pair only the !race file is loaded — the same
// selection an ordinary `go build` makes.
var buildTags = map[string]bool{
	runtime.GOOS:   true,
	runtime.GOARCH: true,
	"gc":           true,
}

// fileIncluded reports whether src's //go:build constraint (if any,
// scanning the leading line-comment block) is satisfied under
// buildTags. Files without a constraint are always included.
func fileIncluded(src []byte) bool {
	for _, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "//") {
			if expr, err := constraint.Parse(line); err == nil {
				return expr.Eval(func(tag string) bool { return buildTags[tag] })
			}
			continue
		}
		// First non-comment line: build constraints must precede it.
		break
	}
	return true
}

// importPathFor maps a module-local directory to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.modRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.modPath)
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

func (l *Loader) loadDir(dir string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	return l.loadPath(path, dir)
}

// loadPath type-checks the module package at dir (memoized by import
// path).
func (l *Loader) loadPath(path, dir string) (*Package, error) {
	if e, ok := l.pkgs[path]; ok {
		if e == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", path)
		}
		return e.pkg, e.err
	}
	l.pkgs[path] = nil // cycle marker
	pkg, err := l.typeCheckDir(path, dir)
	l.pkgs[path] = &loadEntry{pkg: pkg, err: err}
	return pkg, err
}

func (l *Loader) typeCheckDir(path, dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		if !sourceFileWanted(e) {
			continue
		}
		full := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, err
		}
		if !fileIncluded(src) {
			continue
		}
		f, err := parser.ParseFile(l.Fset, full, src,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go source files in %s", dir)
	}
	info := newTypesInfo()
	conf := &types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return &Package{
		Path:    path,
		ModPath: l.modPath,
		ModRoot: l.modRoot,
		Fset:    l.Fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}, nil
}

func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// Import implements types.Importer: module-local packages are loaded
// from source by the loader itself, everything else (stdlib) is
// delegated to the source-mode importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		pkg, err := l.loadPath(path, filepath.Join(l.modRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
