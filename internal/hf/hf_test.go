package hf

import (
	"math"
	"testing"

	"repro/internal/basis"
)

// Reference: Szabo & Ostlund, "Modern Quantum Chemistry": RHF/STO-3G for
// H2 at R = 1.4 a0 gives E_total ≈ −1.1167 Eh.
func TestH2Energy(t *testing.T) {
	r := 1.4 / basis.AngstromToBohr // bond length in Å for the Z-matrix
	mol, err := basis.ZToCartesian("H2", []basis.ZEntry{
		{Symbol: "H"},
		{Symbol: "H", RefD: 0, Dist: r},
	})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := basis.STO3G(mol)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SCF(bs, 0, &MemorySource{BS: bs}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("SCF did not converge in %d iterations", res.Iterations)
	}
	if math.Abs(res.Energy-(-1.1167)) > 2e-4 {
		t.Fatalf("H2 energy = %.6f, want ≈ -1.1167", res.Energy)
	}
	// Bonding orbital below zero, antibonding above.
	if res.OrbitalEnergies[0] >= 0 || res.OrbitalEnergies[1] <= 0 {
		t.Fatalf("orbital energies %v", res.OrbitalEnergies)
	}
}

// HeH+ at R = 1.4632 a0. (Szabo & Ostlund's worked example uses
// ζ-rescaled STO-3G exponents for He, so we check the standard-STO-3G
// value band rather than their −4.2275 Eh electronic energy.)
func TestHeHPlusEnergy(t *testing.T) {
	r := 1.4632 / basis.AngstromToBohr
	mol, err := basis.ZToCartesian("HeH+", []basis.ZEntry{
		{Symbol: "He"},
		{Symbol: "H", RefD: 0, Dist: r},
	})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := basis.STO3G(mol)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SCF(bs, +1, &MemorySource{BS: bs}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("SCF did not converge")
	}
	if res.ElectronicE < -4.35 || res.ElectronicE > -4.10 {
		t.Fatalf("HeH+ electronic energy = %.5f, want ≈ -4.2", res.ElectronicE)
	}
	if res.Energy < -2.95 || res.Energy > -2.75 {
		t.Fatalf("HeH+ total energy = %.5f, want ≈ -2.84", res.Energy)
	}
}

// Water RHF/STO-3G at the experimental geometry: literature value
// ≈ −74.96 Eh (e.g. −74.9630 with r=0.9572 Å, θ=104.52°).
func TestWaterEnergy(t *testing.T) {
	bs, err := basis.STO3G(basis.Water())
	if err != nil {
		t.Fatal(err)
	}
	res, err := SCF(bs, 0, &MemorySource{BS: bs}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("SCF did not converge")
	}
	if res.Energy < -75.1 || res.Energy > -74.8 {
		t.Fatalf("water energy = %.4f, want in [-75.1, -74.8]", res.Energy)
	}
	// 5 doubly-occupied orbitals must all be bound (ε < 0).
	for i := 0; i < 5; i++ {
		if res.OrbitalEnergies[i] >= 0 {
			t.Fatalf("occupied orbital %d has ε = %g ≥ 0", i, res.OrbitalEnergies[i])
		}
	}
}

// Adding polarization functions must lower the RHF energy (variational
// principle) — an end-to-end check that d shells flow correctly through
// one-electron integrals, ERIs and the SCF.
func TestPolarizedBasisIsVariational(t *testing.T) {
	mol := basis.Water()
	plain, err := basis.STO3G(mol)
	if err != nil {
		t.Fatal(err)
	}
	res0, err := SCF(plain, 0, &MemorySource{BS: plain}, Options{})
	if err != nil || !res0.Converged {
		t.Fatalf("plain SCF: %v", err)
	}
	// STO-3G* style: add a d shell on oxygen.
	shells := append([]basis.Shell(nil), plain.Shells...)
	shells = append(shells, basis.Shell{
		Atom: 0, Center: mol.Atoms[0].Pos, L: 2,
		Exps: []float64{0.8}, Coefs: []float64{1},
	})
	pol, err := basis.NewBasisSet(mol, shells)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := SCF(pol, 0, &MemorySource{BS: pol}, Options{})
	if err != nil || !res1.Converged {
		t.Fatalf("polarized SCF: %v", err)
	}
	if res1.Energy >= res0.Energy {
		t.Fatalf("polarized energy %.6f not below plain %.6f (variational principle violated)",
			res1.Energy, res0.Energy)
	}
	// The improvement should be modest (d functions are a perturbation).
	if res0.Energy-res1.Energy > 0.2 {
		t.Fatalf("polarization lowered the energy by %.4f Eh — implausible",
			res0.Energy-res1.Energy)
	}
}

// All three ERI strategies must give the same energy; the compressed
// source differs only within the error bound's effect.
func TestERISourcesAgree(t *testing.T) {
	bs, err := basis.STO3G(basis.Water())
	if err != nil {
		t.Fatal(err)
	}
	mem, err := SCF(bs, 0, &MemorySource{BS: bs}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir, err := SCF(bs, 0, &DirectSource{BS: bs}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := NewCompressedSource(bs, 1e-10, nil)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := SCF(bs, 0, comp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mem.Energy-dir.Energy) > 1e-12 {
		t.Fatalf("direct (%.12f) vs memory (%.12f)", dir.Energy, mem.Energy)
	}
	// EB = 1e-10 on every integral perturbs the energy at ≲ 1e-6 level.
	if math.Abs(mem.Energy-cmp.Energy) > 1e-6 {
		t.Fatalf("compressed (%.10f) vs memory (%.10f)", cmp.Energy, mem.Energy)
	}
	if comp.CompressedBytes >= comp.RawBytes {
		t.Fatalf("compressed ERIs (%d B) not smaller than raw (%d B)",
			comp.CompressedBytes, comp.RawBytes)
	}
	for _, s := range []ERISource{&MemorySource{}, &DirectSource{}, comp} {
		if s.Name() == "" {
			t.Error("empty source name")
		}
	}
}

func TestSCFInputValidation(t *testing.T) {
	bs, err := basis.STO3G(basis.Water())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SCF(bs, 1, &MemorySource{BS: bs}, Options{}); err == nil {
		t.Error("odd electron count accepted")
	}
	if _, err := SCF(bs, 10, &MemorySource{BS: bs}, Options{}); err == nil {
		t.Error("negative electron count accepted")
	}
}
