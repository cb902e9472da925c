// Package pastri is an error-bounded lossy compressor for two-electron
// repulsion integrals (ERIs) and other block-patterned floating-point
// data, reproducing the PaSTRI algorithm (Gok et al., IEEE CLUSTER
// 2018).
//
// # Background
//
// Quantum chemistry codes spend most of their time computing ERIs, whose
// count scales as O(N⁴) with system size; iterative solvers need them
// 10–30 times over. PaSTRI makes storing them practical: each
// shell-quartet block of integrals consists of sub-blocks that repeat a
// single latent pattern up to one scaling coefficient, so a block of
// Na·Nb·Nc·Nd doubles compresses to one quantized pattern (Nc·Nd
// points), Na·Nb quantized scaling coefficients, and compact
// error-correction codes that make the result exact to a user-chosen
// absolute error bound.
//
// # Usage
//
//	opts := pastri.NewOptions(36, 36, 1e-10) // (dd|dd) blocks, EB 1e-10
//	comp, err := pastri.Compress(data, opts)
//	...
//	orig, err := pastri.Decompress(comp)
//
// Every block is compressed and decompressed independently, so both
// directions parallelize across blocks: Compress and StreamWriter encode
// over Options.Workers goroutines, DecompressWorkers decodes over the
// count it is given, and the bytes never depend on the worker count.
//
// The repository also contains everything needed to regenerate the
// paper's evaluation: a from-scratch Gaussian-integral engine standing
// in for GAMESS (internal/eri), SZ- and ZFP-style baseline compressors,
// a restricted Hartree–Fock solver, and benchmark harnesses for every
// figure — see DESIGN.md and EXPERIMENTS.md.
package pastri
