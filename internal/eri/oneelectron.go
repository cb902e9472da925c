package eri

import (
	"math"

	"repro/internal/basis"
)

// OneElectron computes the overlap (S), kinetic (T) and nuclear
// attraction (V) matrices over the basis set, each returned as a dense
// row-major n×n slice with n = bs.NBF(). These feed the Hartree–Fock
// substrate (the paper's Fig. 11 use case).
func OneElectron(bs *basis.BasisSet) (S, T, V []float64, n int) {
	n = bs.NBF()
	S = make([]float64, n*n)
	T = make([]float64, n*n)
	V = make([]float64, n*n)

	shells := make([]*PreparedShell, bs.NShells())
	for i := range shells {
		shells[i] = Prepare(bs.Shells[i])
	}
	maxL := 0
	for _, s := range shells {
		if s.Shell.L > maxL {
			maxL = s.Shell.L
		}
	}
	rt := NewRTable(2 * maxL)
	var ex, ey, ez *ETable

	for si, A := range shells {
		for sj, B := range shells {
			if sj < si {
				continue
			}
			la, lb := A.Shell.L, B.Shell.L
			offA, offB := bs.Offset(si), bs.Offset(sj)
			ca, cb := A.Shell.Center, B.Shell.Center
			for pi, a := range A.Shell.Exps {
				for pj, b := range B.Shell.Exps {
					p := a + b
					var P basis.Vec3
					for d := 0; d < 3; d++ {
						P[d] = (a*ca[d] + b*cb[d]) / p
					}
					// jmax = lb+2 provides the raised-j overlaps the
					// kinetic-energy relation needs.
					ex = BuildE(la, lb+2, a, b, ca[0]-cb[0], ex)
					ey = BuildE(la, lb+2, a, b, ca[1]-cb[1], ey)
					ez = BuildE(la, lb+2, a, b, ca[2]-cb[2], ez)
					sqp := math.Sqrt(math.Pi / p)
					pref3 := sqp * sqp * sqp

					for ai, compA := range A.Comps {
						for bi, compB := range B.Comps {
							coef := A.Coefs[ai][pi] * B.Coefs[bi][pj]
							ia, ja := compA.Lx, compB.Lx
							ib, jb := compA.Ly, compB.Ly
							ic, jc := compA.Lz, compB.Lz

							sx := ex.At(ia, ja, 0)
							sy := ey.At(ib, jb, 0)
							sz := ez.At(ic, jc, 0)
							sval := pref3 * sx * sy * sz

							// Kinetic: −½∇² acting on the ket Gaussian.
							kin1d := func(e *ETable, i, j int) float64 {
								t := 4 * b * b * e.At(i, j+2, 0)
								t -= 2 * b * float64(2*j+1) * e.At(i, j, 0)
								if j >= 2 {
									t += float64(j*(j-1)) * e.At(i, j-2, 0)
								}
								return t
							}
							tx := kin1d(ex, ia, ja) * sy * sz
							ty := kin1d(ey, ib, jb) * sx * sz
							tz := kin1d(ez, ic, jc) * sx * sy
							tval := -0.5 * pref3 * (tx + ty + tz)

							// Nuclear attraction over all nuclei.
							vval := 0.0
							for _, atom := range bs.Mol.Atoms {
								rt.Build(la+lb, p, P[0]-atom.Pos[0], P[1]-atom.Pos[1], P[2]-atom.Pos[2])
								sum := 0.0
								for t := 0; t <= ia+ja; t++ {
									etx := ex.At(ia, ja, t)
									if etx == 0 {
										continue
									}
									for u := 0; u <= ib+jb; u++ {
										ety := etx * ey.At(ib, jb, u)
										if ety == 0 {
											continue
										}
										for v := 0; v <= ic+jc; v++ {
											sum += ety * ez.At(ic, jc, v) * rt.At(t, u, v)
										}
									}
								}
								vval -= float64(atom.Z) * (2 * math.Pi / p) * sum
							}

							r := offA + ai
							c := offB + bi
							S[r*n+c] += coef * sval
							T[r*n+c] += coef * tval
							V[r*n+c] += coef * vval
						}
					}
				}
			}
		}
	}
	// Symmetrize: fill the lower triangles.
	for r := 0; r < n; r++ {
		for c := r + 1; c < n; c++ {
			S[c*n+r] = S[r*n+c]
			T[c*n+r] = T[r*n+c]
			V[c*n+r] = V[r*n+c]
		}
	}
	return S, T, V, n
}
