// Package basis models Gaussian basis sets the way quantum chemistry
// codes like GAMESS do: basis functions (BFs) are contracted Cartesian
// Gaussians grouped into shells that share a center, exponents and total
// angular momentum l, giving (l+1)(l+2)/2 Cartesian components per shell
// (Sec. III-A of the paper; Fig. 1).
//
// It also carries the molecule geometries used in the paper's evaluation
// (benzene, glutamine, tri-alanine) plus small test systems, a Z-matrix
// builder for constructing geometries from internal coordinates, the
// STO-3G minimal basis for H/C/N/O (used by the Hartree–Fock example),
// and the pure-d / pure-f configurations used for the compression
// datasets ((dd|dd), (ff|ff), and hybrids).
package basis

import (
	"fmt"
	"math"
)

// Vec3 is a point or displacement in 3-D space (atomic units, Bohr).
type Vec3 [3]float64

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v[0] + w[0], v[1] + w[1], v[2] + w[2]} }

// Sub returns v − w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v[0] - w[0], v[1] - w[1], v[2] - w[2]} }

// Scale returns s·v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v[0], s * v[1], s * v[2]} }

// Dot returns v·w.
func (v Vec3) Dot(w Vec3) float64 { return v[0]*w[0] + v[1]*w[1] + v[2]*w[2] }

// Cross returns v × w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v[1]*w[2] - v[2]*w[1],
		v[2]*w[0] - v[0]*w[2],
		v[0]*w[1] - v[1]*w[0],
	}
}

// Norm returns |v|.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Unit returns v/|v|; the zero vector is returned unchanged.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// AngstromToBohr converts Å to atomic units.
const AngstromToBohr = 1.8897259886

// Atom is a nucleus with charge Z at a position (in Bohr).
type Atom struct {
	Symbol string
	Z      int
	Pos    Vec3
}

// Molecule is a set of atoms.
type Molecule struct {
	Name  string
	Atoms []Atom
}

// HeavyAtoms returns the non-hydrogen atoms.
func (m Molecule) HeavyAtoms() []Atom {
	var out []Atom
	for _, a := range m.Atoms {
		if a.Z > 1 {
			out = append(out, a)
		}
	}
	return out
}

// NElectrons returns the total electron count for a neutral molecule.
func (m Molecule) NElectrons() int {
	n := 0
	for _, a := range m.Atoms {
		n += a.Z
	}
	return n
}

// NuclearRepulsion returns the classical nucleus–nucleus repulsion energy
// in Hartree.
func (m Molecule) NuclearRepulsion() float64 {
	e := 0.0
	for i := 0; i < len(m.Atoms); i++ {
		for j := i + 1; j < len(m.Atoms); j++ {
			r := m.Atoms[i].Pos.Sub(m.Atoms[j].Pos).Norm()
			e += float64(m.Atoms[i].Z*m.Atoms[j].Z) / r
		}
	}
	return e
}

// ShellLetter returns the chemistry name of an angular momentum:
// s, p, d, f, g, … (Sec. III-A).
func ShellLetter(l int) string {
	letters := "spdfghik"
	if l >= 0 && l < len(letters) {
		return string(letters[l])
	}
	return fmt.Sprintf("l%d", l)
}

// NCart returns the number of Cartesian components of a shell with total
// angular momentum l: (l+1)(l+2)/2.
func NCart(l int) int { return (l + 1) * (l + 2) / 2 }

// CartComponent is one Cartesian Gaussian x^Lx·y^Ly·z^Lz·exp(−αr²).
type CartComponent struct{ Lx, Ly, Lz int }

// cartCache memoizes component lists per l.
var cartCache [12][]CartComponent

func init() {
	for l := range cartCache {
		var comps []CartComponent
		for lx := l; lx >= 0; lx-- {
			for ly := l - lx; ly >= 0; ly-- {
				comps = append(comps, CartComponent{lx, ly, l - lx - ly})
			}
		}
		cartCache[l] = comps
	}
}

// CartComponents lists a shell's Cartesian components in canonical
// (lexicographic descending) order: p → x,y,z; d → xx,xy,xz,yy,yz,zz; …
func CartComponents(l int) []CartComponent {
	if l >= 0 && l < len(cartCache) {
		return cartCache[l]
	}
	var comps []CartComponent
	for lx := l; lx >= 0; lx-- {
		for ly := l - lx; ly >= 0; ly-- {
			comps = append(comps, CartComponent{lx, ly, l - lx - ly})
		}
	}
	return comps
}

// Shell is a contracted Cartesian Gaussian shell: all (l+1)(l+2)/2
// components share the center, exponents and contraction coefficients.
// Coefs are the published coefficients for *normalized primitives*
// (the universal basis-set-exchange convention).
type Shell struct {
	Atom   int // index into the molecule's atom list (-1 if free-standing)
	Center Vec3
	L      int
	Exps   []float64
	Coefs  []float64
}

// NCart returns the number of basis functions in the shell.
func (s Shell) NCart() int { return NCart(s.L) }

// Validate checks structural invariants.
func (s Shell) Validate() error {
	if s.L < 0 {
		return fmt.Errorf("basis: negative angular momentum %d", s.L)
	}
	if len(s.Exps) == 0 || len(s.Exps) != len(s.Coefs) {
		return fmt.Errorf("basis: shell has %d exponents, %d coefficients", len(s.Exps), len(s.Coefs))
	}
	for _, a := range s.Exps {
		if !(a > 0) {
			return fmt.Errorf("basis: non-positive exponent %g", a)
		}
	}
	return nil
}

// doubleFactorial returns n!! with the convention (−1)!! = 0!! = 1.
func doubleFactorial(n int) float64 {
	r := 1.0
	for ; n > 1; n -= 2 {
		r *= float64(n)
	}
	return r
}

// PrimitiveNorm returns the normalization constant of the primitive
// Cartesian Gaussian x^lx y^ly z^lz exp(−α r²):
//
//	N = (2α/π)^¾ · (4α)^(l/2) / sqrt((2lx−1)!!(2ly−1)!!(2lz−1)!!)
func PrimitiveNorm(alpha float64, c CartComponent) float64 {
	l := c.Lx + c.Ly + c.Lz
	num := math.Pow(2*alpha/math.Pi, 0.75) * math.Pow(4*alpha, float64(l)/2)
	den := math.Sqrt(doubleFactorial(2*c.Lx-1) * doubleFactorial(2*c.Ly-1) * doubleFactorial(2*c.Lz-1))
	return num / den
}

// ContractedCoefs returns the effective primitive coefficients for one
// Cartesian component of the shell, such that the contracted BF built
// with plain (unnormalized) primitives Σ_i c'_i x^lx y^ly z^lz e^(−αᵢr²)
// has unit self-overlap.
func (s Shell) ContractedCoefs(c CartComponent) []float64 {
	// Step 1: published coefficients are per normalized primitive.
	eff := make([]float64, len(s.Exps))
	for i, a := range s.Exps {
		eff[i] = s.Coefs[i] * PrimitiveNorm(a, c)
	}
	// Step 2: overall contraction normalization from the analytic
	// same-center overlap of unnormalized primitives.
	l := c.Lx + c.Ly + c.Lz
	df := doubleFactorial(2*c.Lx-1) * doubleFactorial(2*c.Ly-1) * doubleFactorial(2*c.Lz-1)
	self := 0.0
	for i, ai := range s.Exps {
		for j, aj := range s.Exps {
			p := ai + aj
			sij := math.Pow(math.Pi/p, 1.5) * df / math.Pow(2*p, float64(l))
			self += eff[i] * eff[j] * sij
		}
	}
	n := 1 / math.Sqrt(self)
	for i := range eff {
		eff[i] *= n
	}
	return eff
}

// BasisSet is an ordered list of shells over a molecule, with a
// precomputed map from shell index to the offset of its first basis
// function in the full BF list.
type BasisSet struct {
	Mol     Molecule
	Shells  []Shell
	offsets []int
	nbf     int
}

// NewBasisSet assembles shells into a basis set, validating each shell.
func NewBasisSet(mol Molecule, shells []Shell) (*BasisSet, error) {
	bs := &BasisSet{Mol: mol, Shells: shells, offsets: make([]int, len(shells))}
	for i, s := range shells {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("shell %d: %w", i, err)
		}
		bs.offsets[i] = bs.nbf
		bs.nbf += s.NCart()
	}
	return bs, nil
}

// NBF returns the total number of basis functions N (the paper's scaling
// parameter: ERI count grows as O(N⁴)).
func (b *BasisSet) NBF() int { return b.nbf }

// Offset returns the index of the first BF of shell i.
func (b *BasisSet) Offset(i int) int { return b.offsets[i] }

// NShells returns the number of shells.
func (b *BasisSet) NShells() int { return len(b.Shells) }
