package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/zcheck"
)

// This file regenerates Fig. 9: compression ratios (a), rate-distortion
// (b), and compression/decompression rates (c, d).

// Fig9Row is one (dataset, EB, codec) measurement.
type Fig9Row struct {
	Dataset        string
	EB             float64
	Codec          string
	Report         zcheck.Report
	CompressMBps   float64
	DecompressMBps float64
}

// Fig9 runs the full comparison: every dataset × EB × codec, measuring
// ratio (Fig. 9a), PSNR (feeding 9b) and single-core rates (9c, 9d),
// and verifying the error bound on every run.
func Fig9(blocks int) ([]Fig9Row, error) {
	var rows []Fig9Row
	for _, spec := range Workload(blocks) {
		ds, err := dataset.Get(spec)
		if err != nil {
			return nil, err
		}
		raw := float64(len(ds.Data) * 8)
		for _, eb := range EBs {
			for _, codec := range Codecs {
				var comp []byte
				ct, err := timeIt(func() error {
					var e error
					comp, e = compressWith(codec, ds, eb)
					return e
				})
				if err != nil {
					return nil, fmt.Errorf("%s on %s: %w", codec, ds.Name, err)
				}
				var recon []float64
				dt, err := timeIt(func() error {
					var e error
					recon, e = decompressWith(codec, comp)
					return e
				})
				if err != nil {
					return nil, fmt.Errorf("%s on %s: %w", codec, ds.Name, err)
				}
				rep, err := verifyBound(ds.Data, recon, len(comp), eb)
				if err != nil {
					return nil, fmt.Errorf("%s on %s at EB %g: %w", codec, ds.Name, eb, err)
				}
				rows = append(rows, Fig9Row{
					Dataset:        spec.String(),
					EB:             eb,
					Codec:          codec,
					Report:         rep,
					CompressMBps:   raw / 1e6 / ct,
					DecompressMBps: raw / 1e6 / dt,
				})
			}
		}
	}
	return rows, nil
}

// AverageRatio aggregates Fig9 rows: mean compression ratio per codec at
// one error bound (the paper's "PaSTRI gets up to 16.8×, SZ 7.24×, ZFP
// 5.92× at 1e-10" summary).
func AverageRatio(rows []Fig9Row, eb float64) map[string]float64 {
	sum := map[string]float64{}
	n := map[string]int{}
	for _, r := range rows {
		if r.EB == eb {
			sum[r.Codec] += r.Report.Ratio
			n[r.Codec]++
		}
	}
	out := map[string]float64{}
	for c, s := range sum {
		out[c] = s / float64(n[c])
	}
	return out
}

// AverageRate aggregates mean compression and decompression rates per
// codec over all datasets and error bounds (Fig. 9c/d summary).
func AverageRate(rows []Fig9Row) (compress, decompress map[string]float64) {
	cs := map[string]float64{}
	dsum := map[string]float64{}
	n := map[string]int{}
	for _, r := range rows {
		cs[r.Codec] += r.CompressMBps
		dsum[r.Codec] += r.DecompressMBps
		n[r.Codec]++
	}
	compress, decompress = map[string]float64{}, map[string]float64{}
	for c := range cs {
		compress[c] = cs[c] / float64(n[c])
		decompress[c] = dsum[c] / float64(n[c])
	}
	return compress, decompress
}

// RDPoint is one point of the Fig. 9b rate-distortion curve.
type RDPoint struct {
	Codec   string
	EB      float64
	BitRate float64
	PSNR    float64
}

// Fig9b sweeps error bounds on the Alanine (dd|dd) dataset and returns
// PSNR-vs-bitrate points per codec. A curve closer to the upper left is
// better; PaSTRI's must dominate.
func Fig9b(blocks int) ([]RDPoint, error) {
	ds, err := dataset.Get(dataset.Spec{Molecule: "alanine", L: 2, MaxBlocks: blocks})
	if err != nil {
		return nil, err
	}
	sweep := []float64{1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13}
	var pts []RDPoint
	for _, codec := range Codecs {
		for _, eb := range sweep {
			comp, err := compressWith(codec, ds, eb)
			if err != nil {
				return nil, err
			}
			recon, err := decompressWith(codec, comp)
			if err != nil {
				return nil, err
			}
			rep, err := verifyBound(ds.Data, recon, len(comp), eb)
			if err != nil {
				return nil, err
			}
			pts = append(pts, RDPoint{Codec: codec, EB: eb, BitRate: rep.BitRate, PSNR: rep.PSNR})
		}
	}
	return pts, nil
}

// LosslessBaseline compresses the workload with DEFLATE to demonstrate
// the paper's Sec. II premise: lossless ratios of only ≈ 1.1–2× on
// ERI data.
func LosslessBaseline(blocks int) (float64, error) {
	var raw, comp uint64
	for _, spec := range Workload(blocks) {
		ds, err := dataset.Get(spec)
		if err != nil {
			return 0, err
		}
		c, err := compressWith("Gzip", ds, 0)
		if err != nil {
			return 0, err
		}
		recon, err := decompressWith("Gzip", c)
		if err != nil {
			return 0, err
		}
		for i := range recon {
			if recon[i] != ds.Data[i] { // bit-exactness is the property under test (lossless baseline)
				return 0, fmt.Errorf("experiments: lossless baseline not lossless")
			}
		}
		raw += uint64(len(ds.Data) * 8)
		comp += uint64(len(c))
	}
	return float64(raw) / float64(comp), nil
}

// ParallelRow is one worker count's throughput measurement.
type ParallelRow struct {
	Workers        int
	CompressMBps   float64
	DecompressMBps float64
}

// ParallelScaling measures PaSTRI compress/decompress throughput at
// power-of-two worker counts up to maxWorkers on the alanine (dd|dd)
// workload — the block-parallel scaling claim of Sec. IV-C.
func ParallelScaling(blocks, maxWorkers int) ([]ParallelRow, error) {
	if maxWorkers < 1 {
		maxWorkers = 1
	}
	spec := dataset.Spec{Molecule: "alanine", L: 2, MaxBlocks: blocks}
	var rows []ParallelRow
	for w := 1; ; w *= 2 {
		if w > maxWorkers {
			w = maxWorkers
		}
		c, d, err := PaSTRIParallelRate(spec, 1e-10, w)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ParallelRow{Workers: w, CompressMBps: c, DecompressMBps: d})
		if w == maxWorkers {
			return rows, nil
		}
	}
}

// PaSTRIParallelRate measures PaSTRI's multi-worker throughput on one
// dataset (MB/s of raw data), demonstrating the block-parallel design
// of Sec. IV-C.
func PaSTRIParallelRate(spec dataset.Spec, eb float64, workers int) (compressMBps, decompressMBps float64, err error) {
	ds, err := dataset.Get(spec)
	if err != nil {
		return 0, 0, err
	}
	cfg := core.Defaults(ds.NumSB, ds.SBSize, eb)
	cfg.Workers = workers
	raw := float64(len(ds.Data) * 8)
	var comp []byte
	ct, err := timeIt(func() error {
		var e error
		comp, e = core.Compress(ds.Data, cfg, nil)
		return e
	})
	if err != nil {
		return 0, 0, err
	}
	dt, err := timeIt(func() error {
		_, e := core.Decompress(comp, workers)
		return e
	})
	if err != nil {
		return 0, 0, err
	}
	return raw / 1e6 / ct, raw / 1e6 / dt, nil
}
