// Command zcheck assesses lossy-compression quality in the style of the
// Z-Checker framework the paper used: given the original raw data and
// either a reconstructed raw file or a compressed stream, it reports
// compression ratio, bit rate, maximum absolute error, MSE and PSNR,
// and verifies an error bound.
//
// Usage:
//
//	zcheck -orig data.f64 -recon recon.f64 -compsize 123456 [-bound 1e-10]
//	zcheck -orig data.f64 -pstr data.pstr [-bound 1e-10]
//	zcheck -flight flight-0000-eb_violation.json
//
// Raw files are little-endian float64. -flight replays a flight-recorder
// anomaly artifact (see the pastri tool's -flight flag): the offending
// block's original and reconstructed values, as captured at detection
// time, are re-assessed offline against the artifact's recorded error
// bound, independently re-deriving the violation.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"

	pastri "repro"
	"repro/internal/zcheck"
)

func main() {
	var (
		origPath  = flag.String("orig", "", "original raw float64 file")
		reconPath = flag.String("recon", "", "reconstructed raw float64 file")
		pstrPath  = flag.String("pstr", "", "PaSTRI stream to decompress and assess")
		compSize  = flag.Int("compsize", 0, "compressed size in bytes (with -recon)")
		bound     = flag.Float64("bound", 0, "absolute error bound to verify (0 = skip; with -pstr defaults to the stream's bound)")
		flight    = flag.String("flight", "", "flight-recorder artifact JSON to replay")
	)
	flag.Parse()
	var err error
	if *flight != "" {
		err = runFlight(*flight, *bound)
	} else {
		err = run(*origPath, *reconPath, *pstrPath, *compSize, *bound)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "zcheck: %v\n", err)
		os.Exit(1)
	}
}

// runFlight replays a flight-recorder artifact: the captured block's
// original/reconstructed pair is assessed exactly like a -recon run,
// against the artifact's recorded error bound unless -bound overrides
// it. An artifact whose block indeed breaks the bound exits non-zero —
// the live detection and the offline replay agree or the tooling is
// wrong.
func runFlight(path string, bound float64) error {
	a, err := pastri.ReadFlightArtifact(path)
	if err != nil {
		return err
	}
	fmt.Printf("artifact     : %s\n", path)
	fmt.Printf("reason       : %s\n", a.Reason)
	fmt.Printf("block        : %d (encoding %s, %d -> %d bytes, eb slack %.3e)\n",
		a.Record.Block, a.Record.Encoding, a.Record.BytesIn, a.Record.BytesOut, a.Record.EBSlack)
	fmt.Printf("baseline     : ratio mean %.3f stddev %.3f over %d blocks\n",
		a.BaselineMean, a.BaselineStd, a.BaselineN)
	if len(a.Original) == 0 || len(a.Reconstructed) == 0 {
		fmt.Printf("no block data captured (decode-side anomaly); nothing to replay\n")
		return nil
	}
	if bound == 0 {
		bound = a.ErrorBound
	}
	rep, err := zcheck.Assess(a.Original, a.Reconstructed, a.Record.BytesOut, bound)
	if err != nil {
		return err
	}
	return report(rep, bound)
}

func run(origPath, reconPath, pstrPath string, compSize int, bound float64) error {
	if origPath == "" {
		return fmt.Errorf("-orig is required")
	}
	if (reconPath == "") == (pstrPath == "") {
		return fmt.Errorf("pass exactly one of -recon, -pstr")
	}
	orig, err := readRaw(origPath)
	if err != nil {
		return err
	}
	var recon []float64
	switch {
	case pstrPath != "":
		comp, err := os.ReadFile(pstrPath)
		if err != nil {
			return err
		}
		compSize = len(comp)
		if bound == 0 {
			if eb, err := pastri.MaxError(comp); err == nil {
				bound = eb
			}
		}
		recon, err = pastri.Decompress(comp)
		if err != nil {
			return err
		}
	default:
		recon, err = readRaw(reconPath)
		if err != nil {
			return err
		}
	}
	rep, err := zcheck.Assess(orig, recon, compSize, bound)
	if err != nil {
		return err
	}
	return report(rep, bound)
}

func report(rep zcheck.Report, bound float64) error {
	fmt.Printf("elements     : %d\n", rep.Elements)
	fmt.Printf("raw bytes    : %d\n", rep.RawBytes)
	fmt.Printf("comp bytes   : %d (ratio %.2f, bitrate %.3f)\n", rep.CompBytes, rep.Ratio, rep.BitRate)
	fmt.Printf("value range  : %g\n", rep.ValueRange)
	fmt.Printf("max |error|  : %.6e\n", rep.MaxAbsErr)
	fmt.Printf("MSE          : %.6e\n", rep.MSE)
	fmt.Printf("PSNR         : %.2f dB\n", rep.PSNR)
	if bound > 0 {
		if rep.BoundViolated {
			return fmt.Errorf("error bound %g VIOLATED (max error %g)", bound, rep.MaxAbsErr)
		}
		fmt.Printf("bound %g     : OK\n", bound)
	}
	return nil
}

func readRaw(path string) ([]float64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("%s: size %d is not a multiple of 8", path, len(buf))
	}
	out := make([]float64, len(buf)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return out, nil
}
