package flow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzCFGBuild feeds arbitrary Go source through the CFG builder and
// asserts its two structural invariants: New never panics on anything
// the parser accepts, and the resulting graph is well-formed (every
// reachable block is registered in Blocks and every edge appears in
// both Succs and Preds). The corpus is seeded with every Go file in
// the module, so every function the repo actually contains — including
// the hot kernels with their label/goto/defer shapes — is a seed.
// Seeds are named by walk position (seed#N), so adding or deleting a
// Go file shifts the names after it.
func FuzzCFGBuild(f *testing.F) {
	root := moduleRoot(f)
	if root != "" {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := d.Name()
			if d.IsDir() {
				// Dot-directories (.git, .bench_build, ...) and _-prefixed
				// ones hold no committed module source.
				if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(name, ".go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil || len(src) > 1<<20 {
				return nil
			}
			f.Add(string(src))
			return nil
		})
		if err != nil {
			f.Fatal(err)
		}
	}
	// Minimal synthetic seeds exercising edge shapes that may not
	// survive corpus minimization.
	f.Add("package p\nfunc f() { goto x; x: for { break } }")
	f.Add("package p\nfunc f(c chan int) { select { case <-c: default: } }")

	f.Fuzz(func(t *testing.T, src string) {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return // not valid Go: out of contract
		}
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				body = n.Body
			case *ast.FuncLit:
				body = n.Body
			}
			if body != nil {
				g := New(body)
				checkInvariants(t, g)
				// The cycle and reachability queries must also hold up
				// on arbitrary graphs.
				_ = g.InCycle()
				_ = g.Reachable()
			}
			return true
		})
	})
}

// moduleRoot walks up from the working directory to the enclosing
// go.mod, or returns "" (fuzz corpus then runs on synthetic seeds
// only).
func moduleRoot(f *testing.F) string {
	dir, err := os.Getwd()
	if err != nil {
		return ""
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}
