package analysis

import (
	"go/token"
	"regexp"
	"strings"
)

// Suppression convention: a comment containing `lint:<name>-ok`
// silences analyzer <name> on the comment's own line and on the line
// immediately below it. That covers both placements:
//
//	mask := 1<<b - 1 //lint:shiftwidth-ok b <= 63 by the header check
//
//	//lint:shiftwidth-ok b <= 63 by the header check
//	mask := 1<<b - 1
//
// Explanatory prose after the marker is encouraged — the marker is a
// claim about an invariant, and the prose is where the invariant gets
// stated for the next reader.
var suppressRe = regexp.MustCompile(`lint:([a-z][a-z0-9]*)-ok\b`)

// suppressionSet maps filename -> line -> analyzer names silenced there.
type suppressionSet map[string]map[int]map[string]bool

func collectSuppressions(fset *token.FileSet, pkgs []*Package) suppressionSet {
	s := make(suppressionSet)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.Contains(c.Text, "lint:") {
						continue
					}
					for _, m := range suppressRe.FindAllStringSubmatch(c.Text, -1) {
						pos := fset.Position(c.Pos())
						lines := s[pos.Filename]
						if lines == nil {
							lines = make(map[int]map[string]bool)
							s[pos.Filename] = lines
						}
						for _, line := range []int{pos.Line, pos.Line + 1} {
							if lines[line] == nil {
								lines[line] = make(map[string]bool)
							}
							lines[line][m[1]] = true
						}
					}
				}
			}
		}
	}
	return s
}

func (s suppressionSet) suppressed(f Finding) bool {
	return s[f.File][f.Line][f.Analyzer]
}
