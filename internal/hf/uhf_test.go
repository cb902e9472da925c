package hf

import (
	"math"
	"testing"

	"repro/internal/basis"
)

// A hydrogen atom (doublet) in STO-3G: the UHF energy equals the
// one-electron expectation ⟨T⟩+⟨V⟩ of the 1s BF, ≈ −0.46658 Eh (same
// anchor as the integral-engine test).
func TestUHFHydrogenAtom(t *testing.T) {
	mol := basis.Molecule{Name: "H", Atoms: []basis.Atom{{Symbol: "H", Z: 1}}}
	bs, err := basis.STO3G(mol)
	if err != nil {
		t.Fatal(err)
	}
	res, err := UHFSCF(bs, 0, 2, &MemorySource{BS: bs}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("UHF did not converge")
	}
	if math.Abs(res.Energy-(-0.46658)) > 5e-4 {
		t.Fatalf("H atom UHF = %.5f, want ≈ -0.46658", res.Energy)
	}
	// A single electron is a pure doublet: ⟨S²⟩ = 0.75 exactly.
	if math.Abs(res.S2-0.75) > 1e-8 {
		t.Fatalf("⟨S²⟩ = %.6f, want 0.75", res.S2)
	}
}

// For a closed-shell system UHF must reproduce RHF exactly (the
// symmetric solution is a stationary point and our guess preserves it).
func TestUHFMatchesRHFClosedShell(t *testing.T) {
	bs, err := basis.STO3G(basis.Water())
	if err != nil {
		t.Fatal(err)
	}
	src := &MemorySource{BS: bs}
	rhf, err := SCF(bs, 0, src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	uhf, err := UHFSCF(bs, 0, 1, src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !uhf.Converged {
		t.Fatal("UHF did not converge")
	}
	if math.Abs(rhf.Energy-uhf.Energy) > 1e-6 {
		t.Fatalf("UHF %.8f vs RHF %.8f", uhf.Energy, rhf.Energy)
	}
	if math.Abs(uhf.S2) > 1e-6 {
		t.Fatalf("singlet ⟨S²⟩ = %g, want 0", uhf.S2)
	}
}

// Lithium (doublet): UHF/STO-3G total energy ≈ −7.3155 Eh.
func TestUHFLithium(t *testing.T) {
	mol := basis.Molecule{Name: "Li", Atoms: []basis.Atom{{Symbol: "Li", Z: 3}}}
	bs, err := basis.STO3G(mol)
	if err != nil {
		t.Fatal(err)
	}
	res, err := UHFSCF(bs, 0, 2, &MemorySource{BS: bs}, Options{MaxIterations: 200})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("UHF did not converge")
	}
	if res.Energy < -7.5 || res.Energy > -7.2 {
		t.Fatalf("Li UHF = %.5f, want ≈ -7.315", res.Energy)
	}
	// Doublet with minimal spin contamination in a minimal basis.
	if math.Abs(res.S2-0.75) > 0.05 {
		t.Fatalf("Li ⟨S²⟩ = %.4f, want ≈ 0.75", res.S2)
	}
	// Alpha has one more bound orbital occupied than beta.
	if res.AlphaEnergies[1] >= 0 {
		t.Errorf("alpha 2s orbital ε = %g, want < 0", res.AlphaEnergies[1])
	}
}

// UHF through PaSTRI-compressed ERIs: the open-shell path also
// tolerates error-bounded integral storage.
func TestUHFCompressedERIs(t *testing.T) {
	mol := basis.Molecule{Name: "Li", Atoms: []basis.Atom{{Symbol: "Li", Z: 3}}}
	bs, err := basis.STO3G(mol)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := UHFSCF(bs, 0, 2, &MemorySource{BS: bs}, Options{MaxIterations: 200})
	if err != nil || !exact.Converged {
		t.Fatalf("exact UHF: %v", err)
	}
	comp, err := NewCompressedSource(bs, 1e-10, nil)
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := UHFSCF(bs, 0, 2, comp, Options{MaxIterations: 200})
	if err != nil || !lossy.Converged {
		t.Fatalf("compressed UHF: %v", err)
	}
	if math.Abs(exact.Energy-lossy.Energy) > 1e-6 {
		t.Fatalf("compressed UHF %.8f vs exact %.8f", lossy.Energy, exact.Energy)
	}
}

func TestUHFValidation(t *testing.T) {
	bs, err := basis.STO3G(basis.Water())
	if err != nil {
		t.Fatal(err)
	}
	src := &MemorySource{BS: bs}
	if _, err := UHFSCF(bs, 0, 2, src, Options{}); err == nil {
		t.Error("impossible multiplicity accepted")
	}
	if _, err := UHFSCF(bs, 0, 0, src, Options{}); err == nil {
		t.Error("multiplicity 0 accepted")
	}
	if _, err := UHFSCF(bs, 20, 1, src, Options{}); err == nil {
		t.Error("no electrons accepted")
	}
}
