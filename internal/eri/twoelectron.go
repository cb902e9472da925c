package eri

import (
	"math"

	"repro/internal/basis"
)

// PreparedShell caches the per-Cartesian-component effective contraction
// coefficients of a shell so repeated quartet evaluations don't redo the
// normalization arithmetic.
type PreparedShell struct {
	Shell basis.Shell
	Comps []basis.CartComponent
	// Coefs[c][i] is the effective coefficient of primitive i for
	// component c (published coefficient × primitive norm × contraction
	// norm).
	Coefs [][]float64
}

// Prepare computes the cached form of a shell.
func Prepare(s basis.Shell) *PreparedShell {
	comps := basis.CartComponents(s.L)
	coefs := make([][]float64, len(comps))
	for c, comp := range comps {
		coefs[c] = s.ContractedCoefs(comp)
	}
	return &PreparedShell{Shell: s, Comps: comps, Coefs: coefs}
}

// Engine evaluates shell-quartet ERI blocks. It owns scratch tables and
// is not safe for concurrent use; create one Engine per goroutine.
type Engine struct {
	maxL   int
	rt     *RTable
	eBra   [3]*ETable
	eKet   [3]*ETable
	jtab   []float64 // flattened: ketPairs × braCube
	braIdx []int32   // scratch: bra Hermite box indices
	braW   []float64 // scratch: bra Hermite box weights
}

// NewEngine returns an engine supporting shells up to angular momentum
// maxL (3 = f suffices for the paper's datasets; 4 = g is supported).
func NewEngine(maxL int) *Engine {
	if maxL < 0 || 4*maxL > maxBoysOrder {
		panic("eri: unsupported maximum angular momentum") //lint:nopanic-ok programmer error: maxL is a construction-time constant
	}
	return &Engine{maxL: maxL, rt: NewRTable(4 * maxL)}
}

// BlockSize returns the number of integrals in the (AB|CD) block.
func BlockSize(a, b, c, d *PreparedShell) int {
	return len(a.Comps) * len(b.Comps) * len(c.Comps) * len(d.Comps)
}

// Quartet computes the shell-quartet ERI tensor (AB|CD) into out using
// the GAMESS-style layout out[((a·Nb+b)·Nc+c)·Nd+d] (Fig. 2b of the
// paper). out must have BlockSize(A,B,C,D) elements; it is overwritten.
func (en *Engine) Quartet(A, B, C, D *PreparedShell, out []float64) {
	la, lb, lc, ld := A.Shell.L, B.Shell.L, C.Shell.L, D.Shell.L
	if la > en.maxL || lb > en.maxL || lc > en.maxL || ld > en.maxL {
		panic("eri: shell angular momentum exceeds engine capacity") //lint:nopanic-ok programmer error: caller must size the engine for its basis set
	}
	nA, nB, nC, nD := len(A.Comps), len(B.Comps), len(C.Comps), len(D.Comps)
	if len(out) != nA*nB*nC*nD {
		panic("eri: output slice has wrong size") //lint:nopanic-ok programmer error: out must be BlockSize() long per the documented contract
	}
	for i := range out {
		out[i] = 0
	}

	lBra := la + lb
	lKet := lc + ld
	lTot := lBra + lKet
	braStride := lBra + 1
	braCube := braStride * braStride * braStride
	if cap(en.jtab) < nC*nD*braCube {
		en.jtab = make([]float64, nC*nD*braCube)
	}
	jtab := en.jtab[:nC*nD*braCube]

	ca, cb, cc, cd := A.Shell.Center, B.Shell.Center, C.Shell.Center, D.Shell.Center

	for i, ea := range A.Shell.Exps {
		for j, eb := range B.Shell.Exps {
			p := ea + eb
			var P basis.Vec3
			for d := 0; d < 3; d++ {
				P[d] = (ea*ca[d] + eb*cb[d]) / p
				en.eBra[d] = BuildE(la, lb, ea, eb, ca[d]-cb[d], en.eBra[d])
			}
			for k, ec := range C.Shell.Exps {
				for l, ed := range D.Shell.Exps {
					q := ec + ed
					var Q basis.Vec3
					for d := 0; d < 3; d++ {
						Q[d] = (ec*cc[d] + ed*cd[d]) / q
						en.eKet[d] = BuildE(lc, ld, ec, ed, cc[d]-cd[d], en.eKet[d])
					}
					alpha := p * q / (p + q)
					en.rt.Build(lTot, alpha, P[0]-Q[0], P[1]-Q[1], P[2]-Q[2])
					pref := 2 * math.Pow(math.Pi, 2.5) / (p * q * math.Sqrt(p+q))

					en.accumulate(A, B, C, D, i, j, k, l, pref,
						lBra, braStride, braCube, jtab, out)
				}
			}
		}
	}
}

// accumulate folds one primitive quadruple into out.
func (en *Engine) accumulate(A, B, C, D *PreparedShell, pi, pj, pk, pl int,
	pref float64, lBra, braStride, braCube int, jtab, out []float64) {

	nB, nC, nD := len(B.Comps), len(C.Comps), len(D.Comps)
	rt := en.rt
	rs := rt.stride

	// Phase 1: for every ket component pair (c,d), contract the ket
	// Hermite coefficients with R into J^{cd}_{tuv} over the bra cube.
	for c, compC := range C.Comps {
		exC, eyC, ezC := compC.Lx, compC.Ly, compC.Lz
		for d, compD := range D.Comps {
			exD, eyD, ezD := compD.Lx, compD.Ly, compD.Lz
			J := jtab[(c*nD+d)*braCube : (c*nD+d+1)*braCube]
			for z := range J {
				J[z] = 0
			}
			exRow := en.eKet[0].Row(exC, exD)
			eyRow := en.eKet[1].Row(eyC, eyD)
			ezRow := en.eKet[2].Row(ezC, ezD)
			for tau, ex := range exRow {
				if ex == 0 {
					continue
				}
				for mu, ey := range eyRow {
					exy := ex * ey
					if exy == 0 {
						continue
					}
					for nu, ez := range ezRow {
						w := exy * ez
						if w == 0 {
							continue
						}
						if (tau+mu+nu)&1 == 1 {
							w = -w
						}
						// Add w·R[t+τ, u+μ, v+ν] over the bra range.
						for t := 0; t <= lBra; t++ {
							for u := 0; u <= lBra-t; u++ {
								n := lBra - t - u + 1
								off := (t+tau)*rs*rs + (u+mu)*rs + nu
								rowR := rt.data[off : off+n]
								off = t*braStride*braStride + u*braStride
								rowJ := J[off : off+n]
								for v := range rowJ {
									rowJ[v] += w * rowR[v]
								}
							}
						}
					}
				}
			}
		}
	}

	// Phase 2: contract bra Hermite coefficients with J and scatter into
	// the output tensor with the contraction coefficients. The bra
	// Hermite product list for a component pair (a,b) is independent of
	// (c,d), so it is materialized once into (index, weight) pairs.
	if cap(en.braIdx) < braCube {
		en.braIdx = make([]int32, braCube)
		en.braW = make([]float64, braCube)
	}
	for a, compA := range A.Comps {
		axA, ayA, azA := compA.Lx, compA.Ly, compA.Lz
		coefA := A.Coefs[a][pi]
		for b, compB := range B.Comps {
			axB, ayB, azB := compB.Lx, compB.Ly, compB.Lz
			coefAB := coefA * B.Coefs[b][pj] * pref
			base := (a*nB + b) * nC * nD

			exRow := en.eBra[0].Row(axA, axB)
			eyRow := en.eBra[1].Row(ayA, ayB)
			ezRow := en.eBra[2].Row(azA, azB)
			nw := 0
			for t, ex := range exRow {
				if ex == 0 {
					continue
				}
				for u, ey := range eyRow {
					exy := ex * ey
					if exy == 0 {
						continue
					}
					rowJ := t*braStride*braStride + u*braStride
					for v, ez := range ezRow {
						if w := exy * ez; w != 0 {
							en.braIdx[nw] = int32(rowJ + v)
							en.braW[nw] = w
							nw++
						}
					}
				}
			}
			braIdx := en.braIdx[:nw]
			braW := en.braW[:nw]

			for c := 0; c < nC; c++ {
				coefABC := coefAB * C.Coefs[c][pk]
				for d := 0; d < nD; d++ {
					J := jtab[(c*nD+d)*braCube:]
					sum := 0.0
					for k, idx := range braIdx {
						sum += braW[k] * J[idx]
					}
					out[base+c*nD+d] += coefABC * D.Coefs[d][pl] * sum
				}
			}
		}
	}
}
