package analysis

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// Suppression convention: a comment containing `lint:<name>-ok`
// silences analyzer <name> on the comment's own line and on the line
// immediately below it. That covers both placements:
//
//	x := a == b //lint:floatcmp-ok exact sentinel comparison
//
//	//lint:floatcmp-ok exact sentinel comparison
//	x := a == b
//
// Explanatory prose after the marker is encouraged — the marker is a
// claim about an invariant, and the prose is where the invariant gets
// stated for the next reader.
var suppressRe = regexp.MustCompile(`lint:([a-z][a-z0-9]*)-ok\b`)

type suppressionSet struct {
	// byFile maps filename -> line -> analyzer names silenced there.
	byFile map[string]map[int]map[string]bool
}

func collectSuppressions(fset *token.FileSet, files []*ast.File) *suppressionSet {
	s := &suppressionSet{byFile: make(map[string]map[int]map[string]bool)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.Contains(c.Text, "lint:") {
					continue
				}
				for _, m := range suppressRe.FindAllStringSubmatch(c.Text, -1) {
					pos := fset.Position(c.Pos())
					lines := s.byFile[pos.Filename]
					if lines == nil {
						lines = make(map[int]map[string]bool)
						s.byFile[pos.Filename] = lines
					}
					for _, line := range []int{pos.Line, pos.Line + 1} {
						set := lines[line]
						if set == nil {
							set = make(map[string]bool)
							lines[line] = set
						}
						set[m[1]] = true
					}
				}
			}
		}
	}
	return s
}

func (s *suppressionSet) suppressed(d Diagnostic) bool {
	lines := s.byFile[d.Pos.Filename]
	if lines == nil {
		return false
	}
	return lines[d.Pos.Line][d.Analyzer]
}
