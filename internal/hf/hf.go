// Package hf implements a restricted Hartree–Fock (RHF) self-consistent
// field solver on top of the integral engine — the end-to-end quantum
// chemistry use case that motivates PaSTRI: the two-electron integrals
// are needed again at every SCF iteration, and can be recomputed from
// scratch, held in memory, or decompressed from a PaSTRI stream
// (Fig. 11 of the paper).
package hf

import (
	"fmt"
	"log/slog"
	"time"

	"repro/internal/basis"
	"repro/internal/core"
	"repro/internal/eri"
	"repro/internal/linalg"
)

// ERISource supplies the full (ij|kl) tensor on demand, once per SCF
// iteration. Implementations model the three storage strategies the
// paper compares.
type ERISource interface {
	// ERIs returns the n⁴ chemist-notation tensor. The returned slice
	// must stay valid until the next call.
	ERIs() ([]float64, error)
	// Name labels the strategy in reports.
	Name() string
}

// DirectSource recomputes every integral from scratch on each call —
// the paper's "Original" GAMESS strategy.
type DirectSource struct{ BS *basis.BasisSet }

// ERIs recomputes the full tensor.
func (s *DirectSource) ERIs() ([]float64, error) { return eri.AllERIs(s.BS), nil }

// Name implements ERISource.
func (s *DirectSource) Name() string { return "direct-recompute" }

// MemorySource computes the tensor once and returns it thereafter.
type MemorySource struct {
	BS   *basis.BasisSet
	eris []float64
}

// ERIs returns the cached tensor, computing it on first use.
func (s *MemorySource) ERIs() ([]float64, error) {
	if s.eris == nil {
		s.eris = eri.AllERIs(s.BS)
	}
	return s.eris, nil
}

// Name implements ERISource.
func (s *MemorySource) Name() string { return "in-memory" }

// CompressedSource computes the tensor once, stores it PaSTRI-compressed
// and decompresses on every call — the paper's "PaSTRI infrastructure".
type CompressedSource struct {
	comp []byte
	buf  []float64
	// CompressedBytes and RawBytes record the storage footprint.
	CompressedBytes int
	RawBytes        int
}

// NewCompressedSource builds the compressed ERI store for a basis set.
// The n⁴ tensor is one PaSTRI block with numSB = n², sbSize = n²: the
// (ij| pairs index sub-blocks and |kl) pairs index points, so the
// pattern structure of Sec. III-B applies directly.
//
// logger receives the compression run's structured logs; nil disables
// logging.
func NewCompressedSource(bs *basis.BasisSet, eb float64, logger *slog.Logger) (*CompressedSource, error) {
	raw := eri.AllERIs(bs)
	n := bs.NBF()
	cfg := core.Defaults(n*n, n*n, eb)
	cfg.Logger = logger
	comp, err := core.Compress(raw, cfg, nil)
	if err != nil {
		return nil, err
	}
	return &CompressedSource{
		comp:            comp,
		CompressedBytes: len(comp),
		RawBytes:        len(raw) * 8,
	}, nil
}

// ERIs decompresses the stored tensor.
func (s *CompressedSource) ERIs() ([]float64, error) {
	out, err := core.Decompress(s.comp, 0)
	if err != nil {
		return nil, err
	}
	s.buf = out
	return out, nil
}

// Name implements ERISource.
func (s *CompressedSource) Name() string { return "pastri-compressed" }

// Options tunes the SCF loop.
type Options struct {
	MaxIterations int     // default 100
	EnergyTol     float64 // default 1e-9 Hartree
	DensityTol    float64 // default 1e-7
	// DisableDIIS turns off Pulay convergence acceleration (used by the
	// convergence comparison test; production runs want it on).
	DisableDIIS bool
	// DIISVectors bounds the extrapolation subspace (default 8).
	DIISVectors int
}

func (o Options) withDefaults() Options {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 100
	}
	if o.EnergyTol <= 0 {
		o.EnergyTol = 1e-9
	}
	if o.DensityTol <= 0 {
		o.DensityTol = 1e-7
	}
	if o.DIISVectors <= 0 {
		o.DIISVectors = 8
	}
	return o
}

// Result reports a converged (or aborted) SCF calculation.
type Result struct {
	Energy          float64 // total energy in Hartree (electronic + nuclear)
	ElectronicE     float64
	NuclearE        float64
	Iterations      int
	Converged       bool
	OrbitalEnergies []float64
	ERITime         time.Duration // cumulative time spent obtaining ERIs
	SCFTime         time.Duration // total SCF wall time
	// Density and Fock are the final AO-basis density and Fock matrices
	// (for property evaluation and diagnostics).
	Density *linalg.Matrix
	Fock    *linalg.Matrix
	// Overlap is the AO overlap matrix.
	Overlap *linalg.Matrix
}

// SCF runs restricted Hartree–Fock for a closed-shell molecule with
// `charge` net charge, drawing two-electron integrals from src.
func SCF(bs *basis.BasisSet, charge int, src ERISource, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	nElec := bs.Mol.NElectrons() - charge
	if nElec <= 0 {
		return nil, fmt.Errorf("hf: %d electrons", nElec)
	}
	if nElec%2 != 0 {
		return nil, fmt.Errorf("hf: RHF needs a closed shell, got %d electrons", nElec)
	}
	nocc := nElec / 2
	n := bs.NBF()
	if nocc > n {
		return nil, fmt.Errorf("hf: %d occupied orbitals exceed %d basis functions", nocc, n)
	}

	start := time.Now()
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

	res := &Result{NuclearE: bs.Mol.NuclearRepulsion()}
	D := linalg.NewMatrix(n, n)
	F := H.Clone()
	prevE := 0.0
	var acc *diis
	if !opt.DisableDIIS {
		acc = newDIIS(opt.DIISVectors)
	}

	for iter := 1; iter <= opt.MaxIterations; iter++ {
		res.Iterations = iter
		// DIIS: extrapolate the Fock matrix from the recent subspace.
		fEff := F
		if acc != nil && iter > 2 {
			if mixed, err := acc.extrapolate(); err == nil {
				fEff = mixed
			}
		}
		// Diagonalize in the orthogonal basis.
		Fp := linalg.Mul(linalg.Mul(X.Transpose(), fEff), X)
		eps, Cp, err := linalg.EigSym(Fp)
		if err != nil {
			return nil, fmt.Errorf("hf: iteration %d: %w", iter, err)
		}
		C := linalg.Mul(X, Cp)
		res.OrbitalEnergies = eps

		// Closed-shell density: D_mn = 2 Σ_occ C_mi C_ni.
		newD := linalg.NewMatrix(n, n)
		for m := 0; m < n; m++ {
			for nu := 0; nu < n; nu++ {
				s := 0.0
				for i := 0; i < nocc; i++ {
					s += C.At(m, i) * C.At(nu, i)
				}
				newD.Set(m, nu, 2*s)
			}
		}
		dDiff := linalg.MaxAbsDiff(newD, D)
		D = newD

		// Fock build: F = H + G[D].
		t0 := time.Now()
		eris, err := src.ERIs()
		res.ERITime += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("hf: iteration %d: %w", iter, err)
		}
		F = fock(H, D, eris, n)
		if acc != nil {
			acc.push(F, diisError(F, D, S, X))
		}

		// E_elec = ½ Σ D (H + F).
		e := 0.0
		for i := range D.Data {
			e += D.Data[i] * (H.Data[i] + F.Data[i])
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
	res.Density = D
	res.Fock = F
	res.Overlap = S
	res.SCFTime = time.Since(start)
	return res, nil
}

// fock assembles F = H + G with
// G_mn = Σ_ls D_ls [ (mn|ls) − ½·(ml|ns) ].
func fock(H, D *linalg.Matrix, eris []float64, n int) *linalg.Matrix {
	F := H.Clone()
	for m := 0; m < n; m++ {
		for nu := 0; nu < n; nu++ {
			g := 0.0
			for l := 0; l < n; l++ {
				for s := 0; s < n; s++ {
					d := D.At(l, s)
					if d == 0 {
						continue
					}
					coul := eris[((m*n+nu)*n+l)*n+s]
					exch := eris[((m*n+l)*n+nu)*n+s]
					g += d * (coul - 0.5*exch)
				}
			}
			F.Set(m, nu, F.At(m, nu)+g)
		}
	}
	// Symmetrize: a lossy (error-bounded) ERI store perturbs each tensor
	// element independently, so G picks up an O(EB) asymmetry.
	for m := 0; m < n; m++ {
		for nu := m + 1; nu < n; nu++ {
			avg := (F.At(m, nu) + F.At(nu, m)) / 2
			F.Set(m, nu, avg)
			F.Set(nu, m, avg)
		}
	}
	return F
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
