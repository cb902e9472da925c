// Hartree–Fock example: the end-to-end use case that motivates PaSTRI
// (paper Fig. 11). An SCF calculation needs the two-electron integrals
// at every iteration; this example runs restricted Hartree–Fock on
// water with three ERI strategies and compares energies and the time
// spent obtaining integrals:
//
//   - direct:   recompute all ERIs every iteration (GAMESS "Original")
//   - memory:   compute once, keep raw in memory
//   - pastri:   compute once, store PaSTRI-compressed, decompress per
//     iteration — the paper's "PaSTRI infrastructure"
package main

import (
	"fmt"
	"log"

	"repro/internal/basis"
	"repro/internal/hf"
)

func main() {
	mol := basis.Water()
	bs, err := basis.STO3G(mol)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RHF/STO-3G on %s: %d basis functions, %d electrons\n\n",
		mol.Name, bs.NBF(), mol.NElectrons())

	comp, err := hf.NewCompressedSource(bs, 1e-10, nil)
	if err != nil {
		log.Fatal(err)
	}
	sources := []hf.ERISource{
		&hf.DirectSource{BS: bs},
		&hf.MemorySource{BS: bs},
		comp,
	}
	for _, src := range sources {
		res, err := hf.SCF(bs, 0, src, hf.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s E = %.8f Eh  (%d iterations, converged=%v, ERI time %v)\n",
			src.Name(), res.Energy, res.Iterations, res.Converged, res.ERITime)
	}
	fmt.Printf("\ncompressed ERI store: %d -> %d bytes (ratio %.2f)\n",
		comp.RawBytes, comp.CompressedBytes,
		float64(comp.RawBytes)/float64(comp.CompressedBytes))

	// Production shape: never materialize the n⁴ tensor — stream
	// compressed shell-quartet blocks into the Fock build directly.
	store, err := hf.NewBlockedStore(bs, 1e-10, nil)
	if err != nil {
		log.Fatal(err)
	}
	blocked, err := hf.SCFBlocked(bs, 0, store, hf.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-18s E = %.8f Eh  (%d quartet blocks, %d -> %d bytes)\n",
		"blocked-store", blocked.Energy, store.Blocks(), store.RawBytes, store.CompressedBytes)

	// Properties from the converged density.
	res, err := hf.SCF(bs, 0, comp, hf.Options{})
	if err != nil {
		log.Fatal(err)
	}
	mu, err := hf.DipoleMoment(bs, res.Density)
	if err != nil {
		log.Fatal(err)
	}
	q, err := hf.MullikenCharges(bs, res.Density, res.Overlap)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndipole moment: %.4f a.u. (%.3f D); Mulliken charges: O %+.3f, H %+.3f, H %+.3f\n",
		mu.Norm(), mu.Norm()*hf.AtomicUnitsToDebye, q[0], q[1], q[2])
	fmt.Println("\nAll strategies agree to well below chemical accuracy;")
	fmt.Println("with EB = 1e-10 per integral the energy shift is ≈ 1e-8 Eh.")
}
