package hf

import (
	"math"
	"testing"

	"repro/internal/basis"
)

// MP2/STO-3G water: correlation energy ≈ −0.049 Eh (Crawford's
// programming-project reference is −0.04915 at a near-identical
// geometry).
func TestMP2Water(t *testing.T) {
	bs, err := basis.STO3G(basis.Water())
	if err != nil {
		t.Fatal(err)
	}
	res, err := MP2(bs, 0, &MemorySource{BS: bs}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ECorr >= 0 {
		t.Fatalf("correlation energy %.6f not negative", res.ECorr)
	}
	if res.ECorr < -0.07 || res.ECorr > -0.03 {
		t.Fatalf("E(2) = %.5f, want ≈ -0.049", res.ECorr)
	}
	if math.Abs(res.ETotal-(res.EHF+res.ECorr)) > 1e-12 {
		t.Fatal("total energy inconsistent")
	}
	if res.NOcc != 5 || res.NVirt != 2 {
		t.Fatalf("occ/virt = %d/%d", res.NOcc, res.NVirt)
	}
	// Pair-energy matrix: symmetric, all pairs non-positive.
	for i := 0; i < res.NOcc; i++ {
		for j := 0; j < res.NOcc; j++ {
			if math.Abs(res.PairEnergy[i][j]-res.PairEnergy[j][i]) > 1e-10 {
				t.Fatalf("pair energies asymmetric at %d,%d", i, j)
			}
		}
	}
}

// MP2 for H2: one occupied, one virtual orbital; E(2) must match the
// closed form −|(ia|ia)|²·... i.e. (ov|ov)²·2/denominator with the
// exchange term folded in: pair = (ia|ia)²/(2ε_i − 2ε_a).
func TestMP2H2ClosedForm(t *testing.T) {
	bs, err := basis.STO3G(basis.H2())
	if err != nil {
		t.Fatal(err)
	}
	res, err := MP2(bs, 0, &MemorySource{BS: bs}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NOcc != 1 || res.NVirt != 1 {
		t.Fatalf("occ/virt = %d/%d", res.NOcc, res.NVirt)
	}
	// H2/STO-3G MP2 correlation ≈ −0.013 Eh (Szabo & Ostlund ballpark
	// at the experimental geometry).
	if res.ECorr > -0.005 || res.ECorr < -0.03 {
		t.Fatalf("H2 E(2) = %.5f", res.ECorr)
	}
}

// MP2 through the compressed ERI store must agree with exact ERIs to
// well within the error-bound-induced perturbation.
func TestMP2CompressedERIs(t *testing.T) {
	bs, err := basis.STO3G(basis.Water())
	if err != nil {
		t.Fatal(err)
	}
	exact, err := MP2(bs, 0, &MemorySource{BS: bs}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := NewCompressedSource(bs, 1e-10, nil)
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := MP2(bs, 0, comp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact.ECorr-lossy.ECorr) > 1e-6 {
		t.Fatalf("compressed MP2 %.8f vs exact %.8f", lossy.ECorr, exact.ECorr)
	}
}

func TestMP2Validation(t *testing.T) {
	// H2 with minimal basis but both electrons removed → no SCF.
	bs, err := basis.STO3G(basis.H2())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MP2(bs, 2, &MemorySource{BS: bs}, Options{}); err == nil {
		t.Error("zero-electron system accepted")
	}
	// Single H2 atom pair with minimal basis: He has 1 BF and 2
	// electrons → no virtual space.
	he := basis.Molecule{Name: "He", Atoms: []basis.Atom{{Symbol: "He", Z: 2}}}
	bsHe, err := basis.STO3G(he)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MP2(bsHe, 0, &MemorySource{BS: bsHe}, Options{}); err == nil {
		t.Error("system without virtual orbitals accepted")
	}
}
