package eri

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/basis"
	"repro/internal/par"
)

// This file turns the quartet engine into a GAMESS-style dataset
// producer: canonical shell-quartet enumeration, deterministic
// down-sampling (the paper sampled its multi-TB datasets down to 2 GB),
// and parallel block generation.

// Quartet identifies one shell quartet (AB|CD) by shell indices.
type Quartet [4]int

// EnumerateQuartets lists the canonical quartets over nShells shells:
// i ≤ j, k ≤ l, (i,j) ≤ (k,l) in pair order — the standard 8-fold
// permutational symmetry reduction quantum chemistry codes use.
func EnumerateQuartets(nShells int) []Quartet {
	var out []Quartet
	for i := 0; i < nShells; i++ {
		for j := i; j < nShells; j++ {
			for k := i; k < nShells; k++ {
				lStart := k
				if k == i {
					lStart = j
				}
				for l := lStart; l < nShells; l++ {
					out = append(out, Quartet{i, j, k, l})
				}
			}
		}
	}
	return out
}

// SampleQuartets deterministically down-samples qs to at most maxBlocks
// quartets with an even stride, preserving order. maxBlocks ≤ 0 keeps
// everything.
func SampleQuartets(qs []Quartet, maxBlocks int) []Quartet {
	if maxBlocks <= 0 || len(qs) <= maxBlocks {
		return qs
	}
	out := make([]Quartet, 0, maxBlocks)
	stride := float64(len(qs)) / float64(maxBlocks)
	for i := 0; i < maxBlocks; i++ {
		out = append(out, qs[int(float64(i)*stride)])
	}
	return out
}

// SelectQuartets returns up to maxBlocks canonical quartets surviving
// Schwarz screening at tol (negative tol disables screening), sampled
// with an even stride over the surviving population — without
// materializing the full O(P²) quartet list. The surviving population is
// enumerated over shell pairs sorted by descending Schwarz factor: for
// each pair rank r, the partners s ≥ r with Q_r·Q_s ≥ tol form a prefix,
// so counting and index-addressing are O(P log P).
func SelectQuartets(prepared []*PreparedShell, maxL int, tol float64, maxBlocks int) ([]Quartet, error) {
	type pairInfo struct {
		i, j int
		q    float64
	}
	var pairs []pairInfo
	bounds := SchwarzBounds(prepared, maxL)
	for i := 0; i < len(prepared); i++ {
		for j := i; j < len(prepared); j++ {
			pairs = append(pairs, pairInfo{i, j, bounds[[2]int{i, j}]})
		}
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].q != pairs[b].q {
			return pairs[a].q > pairs[b].q
		}
		if pairs[a].i != pairs[b].i {
			return pairs[a].i < pairs[b].i
		}
		return pairs[a].j < pairs[b].j
	})
	P := len(pairs)
	// rowCount[r] = number of partners s in [r, P) with Q_r·Q_s ≥ tol.
	rowStart := make([]uint64, P+1)
	for r := 0; r < P; r++ {
		count := 0
		if tol <= 0 {
			count = P - r
		} else if pairs[r].q > 0 {
			// Largest prefix of the descending-Q list meeting the bound.
			count = sort.Search(P-r, func(k int) bool {
				return pairs[r].q*pairs[r+k].q < tol
			})
		}
		rowStart[r+1] = rowStart[r] + uint64(count)
	}
	total := rowStart[P]
	if total == 0 {
		return nil, fmt.Errorf("eri: screening removed every quartet (tol %g)", tol)
	}
	n := total
	if maxBlocks > 0 && uint64(maxBlocks) < n {
		n = uint64(maxBlocks)
	}
	out := make([]Quartet, 0, n)
	stride := float64(total) / float64(n)
	row := 0
	for k := uint64(0); k < n; k++ {
		idx := uint64(float64(k) * stride)
		for rowStart[row+1] <= idx {
			row++
		}
		s := row + int(idx-rowStart[row])
		out = append(out, Quartet{pairs[row].i, pairs[row].j, pairs[s].i, pairs[s].j})
	}
	return out, nil
}

// Dataset is a generated stream of same-geometry ERI blocks, ready for
// compression: Data holds Blocks consecutive blocks, each a 4-D shell
// quartet tensor of NumSB·SBSize doubles in GAMESS layout.
type Dataset struct {
	Name   string
	Data   []float64
	Blocks int
	NumSB  int // Na·Nb
	SBSize int // Nc·Nd
}

// BlockSizeBytes returns the raw size of one block in bytes.
func (d *Dataset) BlockSizeBytes() int { return d.NumSB * d.SBSize * 8 }

// SizeBytes returns the raw size of the whole dataset in bytes.
func (d *Dataset) SizeBytes() int { return len(d.Data) * 8 }

// Block returns a view of block b.
func (d *Dataset) Block(b int) []float64 {
	n := d.NumSB * d.SBSize
	return d.Data[b*n : (b+1)*n]
}

// GenerateOptions controls dataset generation.
type GenerateOptions struct {
	MaxBlocks int // cap on quartet blocks; ≤ 0 = all canonical quartets
	Workers   int // parallel engines; ≤ 0 = GOMAXPROCS
	// ScreenTol drops quartets whose Schwarz bound √(ab|ab)·√(cd|cd)
	// falls below it, as production integral codes do before computing
	// or storing a block. 0 applies DefaultScreenTol; set negative to
	// disable screening.
	ScreenTol float64
}

// DefaultScreenTol mirrors a typical GAMESS integral cutoff: blocks
// whose largest element is guaranteed below this never reach the ERI
// stream.
const DefaultScreenTol = 1e-11

// SchwarzBounds returns, for every shell pair (i ≤ j), the Schwarz
// factor Q_ij = √(max_ab (ab|ab)) used for rigorous ERI screening:
// |(ab|cd)| ≤ Q_ij·Q_kl.
func SchwarzBounds(prepared []*PreparedShell, maxL int) map[[2]int]float64 {
	n := len(prepared)
	type pair struct{ i, j int }
	pairs := make([]pair, 0, n*(n+1)/2)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			pairs = append(pairs, pair{i, j})
		}
	}
	vals := make([]float64, len(pairs))
	par.Each(len(pairs), 0, func(next func() (int, bool)) error {
		en := NewEngine(maxL)
		var buf []float64
		for k, ok := next(); ok; k, ok = next() {
			A, B := prepared[pairs[k].i], prepared[pairs[k].j]
			nAB := len(A.Comps) * len(B.Comps)
			if cap(buf) < nAB*nAB {
				buf = make([]float64, nAB*nAB)
			}
			block := buf[:nAB*nAB]
			en.Quartet(A, B, A, B, block)
			maxDiag := 0.0
			for d := 0; d < nAB; d++ {
				if v := block[d*nAB+d]; v > maxDiag {
					maxDiag = v
				}
			}
			if maxDiag < 0 {
				maxDiag = 0
			}
			vals[k] = math.Sqrt(maxDiag)
		}
		return nil
	})
	out := make(map[[2]int]float64, len(pairs))
	for k, p := range pairs {
		out[[2]int{p.i, p.j}] = vals[k]
	}
	return out
}

// GeneratePure computes the (ll|ll) dataset for a molecule: l = 2 gives
// the paper's (dd|dd) configuration, l = 3 gives (ff|ff).
func GeneratePure(mol basis.Molecule, l int, opt GenerateOptions) (*Dataset, error) {
	shells, err := basis.PureShells(mol, l)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s (%s%s|%s%s)", mol.Name,
		basis.ShellLetter(l), basis.ShellLetter(l), basis.ShellLetter(l), basis.ShellLetter(l))
	return GenerateBlocks(name, shells, opt)
}

// GenerateBlocks computes all (sampled) canonical shell-quartet blocks
// for a set of same-L shells in parallel. All shells must share one
// angular momentum so every block has identical geometry (the PaSTRI
// stream format requires fixed block dims).
func GenerateBlocks(name string, shells []basis.Shell, opt GenerateOptions) (*Dataset, error) {
	if len(shells) == 0 {
		return nil, fmt.Errorf("eri: no shells")
	}
	l := shells[0].L
	for i, s := range shells {
		if s.L != l {
			return nil, fmt.Errorf("eri: shell %d has L=%d, want uniform L=%d", i, s.L, l)
		}
	}
	prepared := make([]*PreparedShell, len(shells))
	for i, s := range shells {
		prepared[i] = Prepare(s)
	}
	tol := opt.ScreenTol
	if tol == 0 {
		tol = DefaultScreenTol
	}
	quartets, err := SelectQuartets(prepared, l, tol, opt.MaxBlocks)
	if err != nil {
		return nil, err
	}
	return ComputeQuartets(name, prepared, quartets, opt.Workers)
}

// ComputeQuartets evaluates an explicit list of same-L shell quartets in
// parallel. This is the pure integral-computation stage, separated from
// screening/selection so callers (e.g. the Fig. 11 generation-rate
// measurement) can time it on its own.
func ComputeQuartets(name string, prepared []*PreparedShell, quartets []Quartet, workers int) (*Dataset, error) {
	if len(prepared) == 0 || len(quartets) == 0 {
		return nil, fmt.Errorf("eri: nothing to compute")
	}
	l := prepared[0].Shell.L
	nc := basis.NCart(l)
	blockLen := nc * nc * nc * nc

	ds := &Dataset{
		Name:   name,
		Data:   make([]float64, len(quartets)*blockLen),
		Blocks: len(quartets),
		NumSB:  nc * nc,
		SBSize: nc * nc,
	}

	par.Each(len(quartets), workers, func(next func() (int, bool)) error {
		en := NewEngine(l)
		for b, ok := next(); ok; b, ok = next() {
			q := quartets[b]
			en.Quartet(prepared[q[0]], prepared[q[1]], prepared[q[2]], prepared[q[3]],
				ds.Data[b*blockLen:(b+1)*blockLen])
		}
		return nil
	})
	return ds, nil
}

// MixedBlock is one shell-quartet block from a mixed-angular-momentum
// configuration, carrying its own tensor dimensions.
type MixedBlock struct {
	Q              Quartet
	Na, Nb, Nc, Nd int
	Data           []float64
}

// NumSB returns the sub-block count Na·Nb.
func (m *MixedBlock) NumSB() int { return m.Na * m.Nb }

// SBSize returns the sub-block size Nc·Nd.
func (m *MixedBlock) SBSize() int { return m.Nc * m.Nd }

// ComputeMixedBlocks evaluates quartets over shells of arbitrary
// (possibly differing) angular momenta — the paper's hybrid
// configurations ((df|fd), etc.). Unlike ComputeQuartets, block shapes
// vary, so the result is a list of self-describing blocks in quartet
// order.
func ComputeMixedBlocks(prepared []*PreparedShell, quartets []Quartet, workers int) ([]MixedBlock, error) {
	if len(prepared) == 0 || len(quartets) == 0 {
		return nil, fmt.Errorf("eri: nothing to compute")
	}
	maxL := 0
	for _, p := range prepared {
		if p.Shell.L > maxL {
			maxL = p.Shell.L
		}
	}
	out := make([]MixedBlock, len(quartets))
	par.Each(len(quartets), workers, func(next func() (int, bool)) error {
		en := NewEngine(maxL)
		for b, ok := next(); ok; b, ok = next() {
			q := quartets[b]
			A, B, C, D := prepared[q[0]], prepared[q[1]], prepared[q[2]], prepared[q[3]]
			blk := MixedBlock{
				Q:  q,
				Na: len(A.Comps), Nb: len(B.Comps),
				Nc: len(C.Comps), Nd: len(D.Comps),
			}
			blk.Data = make([]float64, blk.NumSB()*blk.SBSize())
			en.Quartet(A, B, C, D, blk.Data)
			out[b] = blk
		}
		return nil
	})
	return out, nil
}

// AllERIs computes the complete two-electron integral tensor (ij|kl)
// over a (small) basis set, exploiting the 8-fold permutational
// symmetry. The result is a flat n⁴ tensor in chemist notation,
// addressed as eri[((i·n+j)·n+k)·n+l]. Intended for the Hartree–Fock
// substrate; memory grows as n⁴.
func AllERIs(bs *basis.BasisSet) []float64 {
	n := bs.NBF()
	out := make([]float64, n*n*n*n)
	prepared := make([]*PreparedShell, bs.NShells())
	maxL := 0
	for i := range prepared {
		prepared[i] = Prepare(bs.Shells[i])
		if bs.Shells[i].L > maxL {
			maxL = bs.Shells[i].L
		}
	}
	quartets := EnumerateQuartets(bs.NShells())

	var mu sync.Mutex
	par.Each(len(quartets), 0, func(next func() (int, bool)) error {
		en := NewEngine(maxL)
		var buf []float64
		for k, ok := next(); ok; k, ok = next() {
			q := quartets[k]
			A, B, C, D := prepared[q[0]], prepared[q[1]], prepared[q[2]], prepared[q[3]]
			size := BlockSize(A, B, C, D)
			if cap(buf) < size {
				buf = make([]float64, size)
			}
			block := buf[:size]
			en.Quartet(A, B, C, D, block)
			mu.Lock()
			scatterQuartet(out, n, bs, q, A, B, C, D, block)
			mu.Unlock()
		}
		return nil
	})
	return out
}

// scatterQuartet writes one computed block into the full tensor at all
// 8 permutationally equivalent positions.
func scatterQuartet(out []float64, n int, bs *basis.BasisSet, q Quartet,
	A, B, C, D *PreparedShell, block []float64) {
	offA, offB, offC, offD := bs.Offset(q[0]), bs.Offset(q[1]), bs.Offset(q[2]), bs.Offset(q[3])
	nB, nC, nD := len(B.Comps), len(C.Comps), len(D.Comps)
	set := func(i, j, k, l int, v float64) {
		out[((i*n+j)*n+k)*n+l] = v
		out[((j*n+i)*n+k)*n+l] = v
		out[((i*n+j)*n+l)*n+k] = v
		out[((j*n+i)*n+l)*n+k] = v
		out[((k*n+l)*n+i)*n+j] = v
		out[((l*n+k)*n+i)*n+j] = v
		out[((k*n+l)*n+j)*n+i] = v
		out[((l*n+k)*n+j)*n+i] = v
	}
	for a := 0; a < len(A.Comps); a++ {
		for b := 0; b < nB; b++ {
			for c := 0; c < nC; c++ {
				for d := 0; d < nD; d++ {
					v := block[((a*nB+b)*nC+c)*nD+d]
					set(offA+a, offB+b, offC+c, offD+d, v)
				}
			}
		}
	}
}
