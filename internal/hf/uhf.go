package hf

import (
	"fmt"
	"time"

	"repro/internal/basis"
	"repro/internal/eri"
	"repro/internal/linalg"
)

// UHF implements unrestricted Hartree–Fock for open-shell systems —
// one of the methods the paper lists as benefiting from compressed ERI
// storage (Sec. I). Spin-up and spin-down electrons get independent
// orbital sets:
//
//	F_α = H + J[D_α + D_β] − K[D_α]
//	F_β = H + J[D_α + D_β] − K[D_β]
//	E   = ½ Σ [ D_total·H + D_α·F_α + D_β·F_β ]

// UHFResult extends Result with spin-resolved quantities.
type UHFResult struct {
	Energy        float64
	ElectronicE   float64
	NuclearE      float64
	Iterations    int
	Converged     bool
	AlphaEnergies []float64
	BetaEnergies  []float64
	S2            float64 // ⟨S²⟩ expectation (spin contamination diagnostic)
	ERITime       time.Duration
	DensityAlpha  *linalg.Matrix
	DensityBeta   *linalg.Matrix
	Overlap       *linalg.Matrix
}

// UHFSCF runs unrestricted Hartree–Fock with nAlpha ≥ nBeta electrons
// of each spin, drawing ERIs from src.
func UHFSCF(bs *basis.BasisSet, charge, multiplicity int, src ERISource, opt Options) (*UHFResult, error) {
	opt = opt.withDefaults()
	nElec := bs.Mol.NElectrons() - charge
	if nElec <= 0 {
		return nil, fmt.Errorf("hf: %d electrons", nElec)
	}
	nOpen := multiplicity - 1 // unpaired electrons
	if nOpen < 0 || (nElec-nOpen)%2 != 0 || nOpen > nElec {
		return nil, fmt.Errorf("hf: multiplicity %d impossible with %d electrons", multiplicity, nElec)
	}
	nBeta := (nElec - nOpen) / 2
	nAlpha := nBeta + nOpen
	n := bs.NBF()
	if nAlpha > n {
		return nil, fmt.Errorf("hf: %d alpha electrons exceed %d basis functions", nAlpha, n)
	}

	Sflat, Tflat, Vflat, _ := eri.OneElectron(bs)
	S := linalg.FromSlice(n, n, Sflat)
	H := linalg.NewMatrix(n, n)
	for i := range H.Data {
		H.Data[i] = Tflat[i] + Vflat[i]
	}
	X, err := linalg.SymOrth(S)
	if err != nil {
		return nil, fmt.Errorf("hf: %w", err)
	}

	res := &UHFResult{NuclearE: bs.Mol.NuclearRepulsion(), Overlap: S}
	Da := linalg.NewMatrix(n, n)
	Db := linalg.NewMatrix(n, n)
	Fa, Fb := H.Clone(), H.Clone()
	var Ca, Cb *linalg.Matrix
	prevE := 0.0

	for iter := 1; iter <= opt.MaxIterations; iter++ {
		res.Iterations = iter
		var err error
		var epsA, epsB []float64
		epsA, Ca, err = diagonalize(Fa, X)
		if err != nil {
			return nil, fmt.Errorf("hf: iteration %d (alpha): %w", iter, err)
		}
		epsB, Cb, err = diagonalize(Fb, X)
		if err != nil {
			return nil, fmt.Errorf("hf: iteration %d (beta): %w", iter, err)
		}
		res.AlphaEnergies, res.BetaEnergies = epsA, epsB

		newDa := densityFrom(Ca, nAlpha, 1)
		newDb := densityFrom(Cb, nBeta, 1)
		dDiff := linalg.MaxAbsDiff(newDa, Da) + linalg.MaxAbsDiff(newDb, Db)
		Da, Db = newDa, newDb

		t0 := time.Now()
		eris, err := src.ERIs()
		res.ERITime += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("hf: iteration %d: %w", iter, err)
		}
		Fa = uhfFock(H, Da, Db, eris, n)
		Fb = uhfFock(H, Db, Da, eris, n)

		e := 0.0
		for i := range H.Data {
			dt := Da.Data[i] + Db.Data[i]
			e += dt*H.Data[i] + Da.Data[i]*Fa.Data[i] + Db.Data[i]*Fb.Data[i]
		}
		e /= 2
		res.ElectronicE = e
		res.Energy = e + res.NuclearE

		if iter > 1 && abs(e-prevE) < opt.EnergyTol && dDiff < opt.DensityTol {
			res.Converged = true
			break
		}
		prevE = e
	}

	res.DensityAlpha, res.DensityBeta = Da, Db
	res.S2 = spinExpectation(Ca, Cb, S, nAlpha, nBeta)
	return res, nil
}

// diagonalize solves F'C' = C'ε in the orthonormal basis and
// back-transforms the coefficients.
func diagonalize(F, X *linalg.Matrix) ([]float64, *linalg.Matrix, error) {
	Fp := linalg.Mul(linalg.Mul(X.Transpose(), F), X)
	eps, Cp, err := linalg.EigSym(Fp)
	if err != nil {
		return nil, nil, err
	}
	return eps, linalg.Mul(X, Cp), nil
}

// densityFrom builds D_mn = occScale · Σ_occ C_mi C_ni.
func densityFrom(C *linalg.Matrix, nocc int, occScale float64) *linalg.Matrix {
	n := C.Rows
	D := linalg.NewMatrix(n, n)
	for m := 0; m < n; m++ {
		for nu := 0; nu < n; nu++ {
			s := 0.0
			for i := 0; i < nocc; i++ {
				s += C.At(m, i) * C.At(nu, i)
			}
			D.Set(m, nu, occScale*s)
		}
	}
	return D
}

// uhfFock builds F_σ = H + J[D_σ + D_τ] − K[D_σ].
func uhfFock(H, Dsigma, Dtau *linalg.Matrix, eris []float64, n int) *linalg.Matrix {
	F := H.Clone()
	for m := 0; m < n; m++ {
		for nu := 0; nu < n; nu++ {
			g := 0.0
			for l := 0; l < n; l++ {
				for s := 0; s < n; s++ {
					dTot := Dsigma.At(l, s) + Dtau.At(l, s)
					if dTot != 0 {
						g += dTot * eris[((m*n+nu)*n+l)*n+s]
					}
					if ds := Dsigma.At(l, s); ds != 0 {
						g -= ds * eris[((m*n+l)*n+nu)*n+s]
					}
				}
			}
			F.Set(m, nu, F.At(m, nu)+g)
		}
	}
	for m := 0; m < n; m++ {
		for nu := m + 1; nu < n; nu++ {
			avg := (F.At(m, nu) + F.At(nu, m)) / 2
			F.Set(m, nu, avg)
			F.Set(nu, m, avg)
		}
	}
	return F
}

// spinExpectation computes ⟨S²⟩ = S²_exact + N_β − Σ_ij |⟨α_i|β_j⟩|²
// over the occupied orbitals.
func spinExpectation(Ca, Cb, S *linalg.Matrix, nAlpha, nBeta int) float64 {
	sz := float64(nAlpha-nBeta) / 2
	exact := sz * (sz + 1)
	if Ca == nil || Cb == nil {
		return exact
	}
	// Overlaps between occupied alpha and beta orbitals: CaᵀS Cb.
	ov := linalg.Mul(linalg.Mul(Ca.Transpose(), S), Cb)
	sum := 0.0
	for i := 0; i < nAlpha; i++ {
		for j := 0; j < nBeta; j++ {
			v := ov.At(i, j)
			sum += v * v
		}
	}
	return exact + float64(nBeta) - sum
}
