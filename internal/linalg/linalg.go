// Package linalg provides the small dense linear-algebra kernel the
// Hartree–Fock substrate needs: row-major matrices, multiplication, and
// a cyclic Jacobi eigensolver for real symmetric matrices (plenty for
// the basis-set sizes the examples run at, and dependency-free).
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps an existing row-major slice (no copy).
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("linalg: slice length %d != %d×%d", len(data), rows, cols)) //lint:nopanic-ok programmer error: shape mismatch is a caller bug, not a data condition
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns m[i,j].
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns m[i,j] = v.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Mul returns a·b.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)) //lint:nopanic-ok programmer error: shape mismatch is a caller bug
	}
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// MaxAbsDiff returns max |a_ij − b_ij|.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("linalg: shape mismatch") //lint:nopanic-ok programmer error: shape mismatch is a caller bug
	}
	d := 0.0
	for i := range a.Data {
		if e := math.Abs(a.Data[i] - b.Data[i]); e > d {
			d = e
		}
	}
	return d
}

// EigSym diagonalizes a real symmetric matrix with the cyclic Jacobi
// method, returning eigenvalues in ascending order and the matrix of
// column eigenvectors (A·V = V·diag(w)). The input is not modified.
func EigSym(a *Matrix) (w []float64, V *Matrix, err error) {
	n := a.Rows
	if a.Cols != n {
		return nil, nil, fmt.Errorf("linalg: EigSym needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	const maxSweeps = 100
	A := a.Clone()
	V = NewMatrix(n, n)
	for i := 0; i < n; i++ {
		V.Set(i, i, 1)
	}
	// Symmetry check (cheap and catches caller bugs early).
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(A.At(i, j)-A.At(j, i)) > 1e-10*(1+math.Abs(A.At(i, j))) {
				return nil, nil, fmt.Errorf("linalg: matrix not symmetric at (%d,%d): %g vs %g",
					i, j, A.At(i, j), A.At(j, i))
			}
		}
	}

	offDiag := func() float64 {
		s := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s += A.At(i, j) * A.At(i, j)
			}
		}
		return s
	}
	scale := 0.0
	for _, v := range A.Data {
		scale += v * v
	}
	tol := 1e-26 * (scale + 1)

	for sweep := 0; sweep < maxSweeps; sweep++ {
		if offDiag() <= tol {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := A.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := A.At(p, p), A.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c

				// A ← JᵀAJ applied to rows/cols p and q.
				for k := 0; k < n; k++ {
					akp, akq := A.At(k, p), A.At(k, q)
					A.Set(k, p, c*akp-s*akq)
					A.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk, aqk := A.At(p, k), A.At(q, k)
					A.Set(p, k, c*apk-s*aqk)
					A.Set(q, k, s*apk+c*aqk)
				}
				for k := 0; k < n; k++ {
					vkp, vkq := V.At(k, p), V.At(k, q)
					V.Set(k, p, c*vkp-s*vkq)
					V.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}

	w = make([]float64, n)
	for i := 0; i < n; i++ {
		w[i] = A.At(i, i)
	}
	// Sort ascending, permuting eigenvector columns alongside.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ { // insertion sort: n is small
		for j := i; j > 0 && w[idx[j]] < w[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	ws := make([]float64, n)
	Vs := NewMatrix(n, n)
	for col, src := range idx {
		ws[col] = w[src]
		for r := 0; r < n; r++ {
			Vs.Set(r, col, V.At(r, src))
		}
	}
	return ws, Vs, nil
}

// SymOrth returns S^(−1/2), the symmetric (Löwdin) orthogonalization of
// an overlap matrix: X = V·diag(1/√w)·Vᵀ. It errors if S is not
// positive definite (linearly dependent basis).
func SymOrth(S *Matrix) (*Matrix, error) {
	w, V, err := EigSym(S)
	if err != nil {
		return nil, err
	}
	n := S.Rows
	D := NewMatrix(n, n)
	for i, wi := range w {
		if wi <= 1e-10 {
			return nil, fmt.Errorf("linalg: overlap matrix not positive definite (eigenvalue %g)", wi)
		}
		D.Set(i, i, 1/math.Sqrt(wi))
	}
	return Mul(Mul(V, D), V.Transpose()), nil
}

// SolveLinear solves A·x = b by Gaussian elimination with partial
// pivoting. A is modified. Intended for the small systems of the SCF
// DIIS extrapolation.
func SolveLinear(A *Matrix, b []float64) ([]float64, error) {
	n := A.Rows
	if A.Cols != n || len(b) != n {
		return nil, fmt.Errorf("linalg: SolveLinear shape mismatch (%dx%d, b %d)", A.Rows, A.Cols, len(b))
	}
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv, best := col, math.Abs(A.At(col, col))
		for r := col + 1; r < n; r++ {
			if a := math.Abs(A.At(r, col)); a > best {
				piv, best = r, a
			}
		}
		if best < 1e-14 {
			return nil, fmt.Errorf("linalg: singular system at column %d", col)
		}
		if piv != col {
			for c := 0; c < n; c++ {
				tmp := A.At(col, c)
				A.Set(col, c, A.At(piv, c))
				A.Set(piv, c, tmp)
			}
			x[col], x[piv] = x[piv], x[col]
		}
		inv := 1 / A.At(col, col)
		for r := col + 1; r < n; r++ {
			f := A.At(r, col) * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				A.Set(r, c, A.At(r, c)-f*A.At(col, c))
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for r := n - 1; r >= 0; r-- {
		s := x[r]
		for c := r + 1; c < n; c++ {
			s -= A.At(r, c) * x[c]
		}
		x[r] = s / A.At(r, r)
	}
	return x, nil
}

// Trace returns Σ a_ii.
func (m *Matrix) Trace() float64 {
	if m.Rows != m.Cols {
		panic("linalg: trace of non-square matrix") //lint:nopanic-ok programmer error: shape mismatch is a caller bug
	}
	t := 0.0
	for i := 0; i < m.Rows; i++ {
		t += m.At(i, i)
	}
	return t
}
