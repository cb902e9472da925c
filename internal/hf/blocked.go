package hf

import (
	"fmt"
	"log/slog"

	"repro/internal/basis"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/eri"
	"repro/internal/linalg"
)

// BlockedStore is the production-shaped "PaSTRI infrastructure" of the
// paper's Fig. 11: the unique (canonically ordered, Schwarz-screened)
// shell-quartet ERI blocks are computed once, compressed per block into
// a multi-geometry container, and the Fock matrix is assembled directly
// from decompressed blocks using the 8-fold permutational symmetry —
// the full n⁴ tensor never exists in memory.
type BlockedStore struct {
	bs       *basis.BasisSet
	quartets []eri.Quartet
	reader   *container.Reader
	// RawBytes / CompressedBytes record the storage footprint.
	RawBytes        int
	CompressedBytes int
}

// NewBlockedStore computes, compresses and indexes the screened unique
// shell-quartet blocks of a basis set at the given error bound. logger
// receives the container compression's structured logs (per-section
// Info records; per-block Debug when the handler enables it); nil
// disables logging.
func NewBlockedStore(bs *basis.BasisSet, eb float64, logger *slog.Logger) (*BlockedStore, error) {
	prepared := make([]*eri.PreparedShell, bs.NShells())
	maxL := 0
	for i := range prepared {
		prepared[i] = eri.Prepare(bs.Shells[i])
		if bs.Shells[i].L > maxL {
			maxL = bs.Shells[i].L
		}
	}
	// Keep every surviving quartet (no sampling): the Fock build needs
	// all of them. Screening drops only sub-threshold blocks.
	quartets, err := eri.SelectQuartets(prepared, maxL, 1e-14, 0)
	if err != nil {
		return nil, err
	}
	blocks, err := eri.ComputeMixedBlocks(prepared, quartets, 0)
	if err != nil {
		return nil, err
	}
	base := core.Defaults(1, 1, eb)
	base.Logger = logger
	w, err := container.NewWriter(base)
	if err != nil {
		return nil, err
	}
	raw := 0
	for i := range blocks {
		b := &blocks[i]
		g := container.Geometry{NumSB: b.NumSB(), SBSize: b.SBSize()}
		if err := w.WriteBlock(g, b.Data); err != nil {
			return nil, err
		}
		raw += len(b.Data) * 8
	}
	buf, err := w.Bytes()
	if err != nil {
		return nil, err
	}
	reader, err := container.NewReader(buf)
	if err != nil {
		return nil, err
	}
	return &BlockedStore{
		bs:              bs,
		quartets:        quartets,
		reader:          reader,
		RawBytes:        raw,
		CompressedBytes: len(buf),
	}, nil
}

// Blocks returns the number of stored quartet blocks.
func (s *BlockedStore) Blocks() int { return len(s.quartets) }

// Fock assembles F = H + G[D] by streaming the compressed quartet
// blocks, applying each unique integral through its permutational
// images:
//
//	J: F_ij += D_kl (ij|kl)        K: F_ik −= ½ D_jl (ij|kl)   (+ images)
func (s *BlockedStore) Fock(H, D *linalg.Matrix) (*linalg.Matrix, error) {
	n := s.bs.NBF()
	if D.Rows != n || H.Rows != n {
		return nil, fmt.Errorf("hf: matrix size mismatch")
	}
	F := H.Clone()
	s.reader.Reset()
	for _, q := range s.quartets {
		data, _, err := s.reader.Next()
		if err != nil {
			return nil, err
		}
		if data == nil {
			return nil, fmt.Errorf("hf: block store ended early")
		}
		s.scatter(F, D, q, data)
	}
	// Symmetrize (lossy storage perturbs each element independently).
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			avg := (F.At(i, j) + F.At(j, i)) / 2
			F.Set(i, j, avg)
			F.Set(j, i, avg)
		}
	}
	return F, nil
}

// scatter applies one shell-quartet block to the Fock matrix. Each
// stored element (ij|kl) is expanded to the full-tensor contributions
// of its whole permutational orbit, weighted by 1/m where m is the
// number of orbit members that appear in the stored block itself — so
// orbits split across duplicate in-block entries (diagonal shell pairs,
// bra=ket shell pairs) sum to exactly one full application, while
// orbits represented once apply in full.
func (s *BlockedStore) scatter(F, D *linalg.Matrix, q eri.Quartet, data []float64) {
	bs := s.bs
	offA, offB := bs.Offset(q[0]), bs.Offset(q[1])
	offC, offD := bs.Offset(q[2]), bs.Offset(q[3])
	nA := bs.Shells[q[0]].NCart()
	nB := bs.Shells[q[1]].NCart()
	nC := bs.Shells[q[2]].NCart()
	nD := bs.Shells[q[3]].NCart()
	inA := func(x int) bool { return x >= offA && x < offA+nA }
	inB := func(x int) bool { return x >= offB && x < offB+nB }
	inC := func(x int) bool { return x >= offC && x < offC+nC }
	inD := func(x int) bool { return x >= offD && x < offD+nD }

	idx := 0
	for a := 0; a < nA; a++ {
		i := offA + a
		for b := 0; b < nB; b++ {
			j := offB + b
			for c := 0; c < nC; c++ {
				k := offC + c
				for d := 0; d < nD; d++ {
					l := offD + d
					v := data[idx]
					idx++
					if v == 0 {
						continue
					}
					type quad struct{ i, j, k, l int }
					images := [8]quad{
						{i, j, k, l}, {j, i, k, l}, {i, j, l, k}, {j, i, l, k},
						{k, l, i, j}, {l, k, i, j}, {k, l, j, i}, {l, k, j, i},
					}
					var distinct [8]quad
					nDist := 0
				outer:
					for _, im := range images {
						for _, sn := range distinct[:nDist] {
							if sn == im {
								continue outer
							}
						}
						distinct[nDist] = im
						nDist++
					}
					// m: orbit members present in this block's layout.
					m := 0
					for _, im := range distinct[:nDist] {
						if inA(im.i) && inB(im.j) && inC(im.k) && inD(im.l) {
							m++
						}
					}
					w := v / float64(m)
					for _, im := range distinct[:nDist] {
						// Coulomb: F_ij += D_kl·w ; Exchange: F_ik −= ½·D_jl·w.
						F.Set(im.i, im.j, F.At(im.i, im.j)+D.At(im.k, im.l)*w)
						F.Set(im.i, im.k, F.At(im.i, im.k)-0.5*D.At(im.j, im.l)*w)
					}
				}
			}
		}
	}
}

// SCFBlocked runs restricted Hartree–Fock drawing its Fock builds from
// a compressed blocked store.
func SCFBlocked(bs *basis.BasisSet, charge int, store *BlockedStore, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	nElec := bs.Mol.NElectrons() - charge
	if nElec <= 0 || nElec%2 != 0 {
		return nil, fmt.Errorf("hf: RHF needs a positive even electron count, got %d", nElec)
	}
	nocc := nElec / 2
	n := bs.NBF()
	if nocc > n {
		return nil, fmt.Errorf("hf: %d occupied orbitals exceed %d basis functions", nocc, n)
	}
	Sflat, Tflat, Vflat, _ := eri.OneElectron(bs)
	S := linalg.FromSlice(n, n, Sflat)
	H := linalg.NewMatrix(n, n)
	for i := range H.Data {
		H.Data[i] = Tflat[i] + Vflat[i]
	}
	X, err := linalg.SymOrth(S)
	if err != nil {
		return nil, err
	}
	res := &Result{NuclearE: bs.Mol.NuclearRepulsion(), Overlap: S}
	D := linalg.NewMatrix(n, n)
	F := H.Clone()
	prevE := 0.0
	for iter := 1; iter <= opt.MaxIterations; iter++ {
		res.Iterations = iter
		eps, Cp, err := linalg.EigSym(linalg.Mul(linalg.Mul(X.Transpose(), F), X))
		if err != nil {
			return nil, err
		}
		C := linalg.Mul(X, Cp)
		res.OrbitalEnergies = eps
		newD := densityFrom(C, nocc, 2)
		dDiff := linalg.MaxAbsDiff(newD, D)
		D = newD
		F, err = store.Fock(H, D)
		if err != nil {
			return nil, err
		}
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
	return res, nil
}
