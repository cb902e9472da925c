// Command hfrun runs Hartree–Fock (and optionally MP2) on a built-in
// molecule with a selectable two-electron-integral strategy — the
// end-to-end workflow PaSTRI accelerates (paper Fig. 11).
//
// Usage:
//
//	hfrun -mol water                       # RHF/STO-3G, in-memory ERIs
//	hfrun -mol water -store pastri -eb 1e-10
//	hfrun -mol water -store blocked -mp2
//	hfrun -mol li -uhf -mult 2             # open-shell UHF
//
// Molecules: h2, water, benzene, glutamine, trialanine, li, h (atoms).
// Stores: memory, direct (recompute each iteration), pastri
// (compressed n⁴ tensor), blocked (compressed shell-quartet blocks,
// never materializing the full tensor).
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"repro/internal/basis"
	"repro/internal/hf"
)

func main() {
	var (
		mol      = flag.String("mol", "water", "molecule: h2|water|benzene|glutamine|trialanine|li|h")
		store    = flag.String("store", "memory", "ERI strategy: memory|direct|pastri|blocked")
		eb       = flag.Float64("eb", 1e-10, "error bound for compressed stores")
		charge   = flag.Int("charge", 0, "net charge")
		mult     = flag.Int("mult", 1, "spin multiplicity (with -uhf)")
		uhf      = flag.Bool("uhf", false, "run unrestricted HF")
		mp2      = flag.Bool("mp2", false, "add the MP2 correlation energy (RHF only)")
		logMode  = flag.String("log", "off", "structured compression logs to stderr: text|json|off")
		logLevel = flag.String("loglevel", "info", "log level: debug|info|warn|error")
	)
	flag.Parse()
	logger, err := newLogger(*logMode, *logLevel)
	if err == nil {
		err = run(*mol, *store, *eb, *charge, *mult, *uhf, *mp2, logger)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hfrun: %v\n", err)
		os.Exit(1)
	}
}

// newLogger builds the -log/-loglevel slog.Logger; mode "off" returns
// nil, which the compression pipeline treats as logging disabled.
func newLogger(mode, level string) (*slog.Logger, error) {
	if mode == "" || mode == "off" {
		return nil, nil
	}
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "", "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -loglevel %q (want debug|info|warn|error)", level)
	}
	hopts := &slog.HandlerOptions{Level: lvl}
	switch mode {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, hopts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, hopts)), nil
	}
	return nil, fmt.Errorf("unknown -log %q (want text|json|off)", mode)
}

func moleculeByName(name string) (basis.Molecule, error) {
	switch strings.ToLower(name) {
	case "h2":
		return basis.H2(), nil
	case "water":
		return basis.Water(), nil
	case "benzene":
		return basis.Benzene(), nil
	case "glutamine":
		return basis.Glutamine(), nil
	case "trialanine":
		return basis.TriAlanine(), nil
	case "li":
		return basis.Molecule{Name: "Li", Atoms: []basis.Atom{{Symbol: "Li", Z: 3}}}, nil
	case "h":
		return basis.Molecule{Name: "H", Atoms: []basis.Atom{{Symbol: "H", Z: 1}}}, nil
	}
	return basis.Molecule{}, fmt.Errorf("unknown molecule %q", name)
}

func run(molName, store string, eb float64, charge, mult int, uhf, mp2 bool, logger *slog.Logger) error {
	mol, err := moleculeByName(molName)
	if err != nil {
		return err
	}
	bs, err := basis.STO3G(mol)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d atoms, %d basis functions, %d electrons, Vnn = %.6f Eh\n",
		mol.Name, len(mol.Atoms), bs.NBF(), mol.NElectrons()-charge, mol.NuclearRepulsion())

	if store == "blocked" {
		if uhf {
			return fmt.Errorf("blocked store supports RHF only")
		}
		bst, err := hf.NewBlockedStore(bs, eb, logger)
		if err != nil {
			return err
		}
		fmt.Printf("blocked ERI store: %d quartet blocks, %d -> %d bytes (ratio %.2f)\n",
			bst.Blocks(), bst.RawBytes, bst.CompressedBytes,
			float64(bst.RawBytes)/float64(bst.CompressedBytes))
		res, err := hf.SCFBlocked(bs, charge, bst, hf.Options{})
		if err != nil {
			return err
		}
		printRHF(res)
		return nil
	}

	var src hf.ERISource
	switch store {
	case "memory":
		src = &hf.MemorySource{BS: bs}
	case "direct":
		src = &hf.DirectSource{BS: bs}
	case "pastri":
		cs, err := hf.NewCompressedSource(bs, eb, logger)
		if err != nil {
			return err
		}
		fmt.Printf("compressed ERI tensor: %d -> %d bytes (ratio %.2f)\n",
			cs.RawBytes, cs.CompressedBytes, float64(cs.RawBytes)/float64(cs.CompressedBytes))
		src = cs
	default:
		return fmt.Errorf("unknown store %q", store)
	}

	if uhf {
		res, err := hf.UHFSCF(bs, charge, mult, src, hf.Options{})
		if err != nil {
			return err
		}
		fmt.Printf("UHF   E = %.8f Eh  (%d iterations, converged=%v, <S2> = %.4f)\n",
			res.Energy, res.Iterations, res.Converged, res.S2)
		return nil
	}
	if mp2 {
		res, err := hf.MP2(bs, charge, src, hf.Options{})
		if err != nil {
			return err
		}
		fmt.Printf("RHF   E    = %.8f Eh\n", res.EHF)
		fmt.Printf("MP2   E(2) = %.8f Eh\n", res.ECorr)
		fmt.Printf("total E    = %.8f Eh\n", res.ETotal)
		return nil
	}
	res, err := hf.SCF(bs, charge, src, hf.Options{})
	if err != nil {
		return err
	}
	printRHF(res)
	if res.Density != nil {
		if mu, err := hf.DipoleMoment(bs, res.Density); err == nil {
			fmt.Printf("dipole: %.4f a.u. (%.3f D)\n", mu.Norm(), mu.Norm()*hf.AtomicUnitsToDebye)
		}
	}
	return nil
}

func printRHF(res *hf.Result) {
	fmt.Printf("RHF   E = %.8f Eh  (%d iterations, converged=%v, ERI time %v)\n",
		res.Energy, res.Iterations, res.Converged, res.ERITime)
}
