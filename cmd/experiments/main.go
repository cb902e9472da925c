// Command experiments regenerates the tables and figures of the PaSTRI
// paper's evaluation as text output.
//
// Usage:
//
//	experiments -fig all                 # everything (slow on first run)
//	experiments -fig 9a -blocks 1500     # one figure
//
// Figures: 3, 4, 6, 7, 9a, 9b, 9cd, 10, 11, breakdown, lossless,
// huffman, hybrid, geometry. Datasets are generated on first use and
// cached under the system temp directory, so the first invocation pays
// ERI-generation time.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all",
		"figure to regenerate: 3|4|6|7|9a|9b|9cd|10|11|breakdown|lossless|huffman|hybrid|geometry|parallel|all")
	blocks := flag.Int("blocks", dataset.DefaultBlocks, "sampled quartet blocks per dataset")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"max parallel workers for the parallel-scaling figure")
	flag.Parse()

	runs := map[string]func(int) error{
		"3":         fig3,
		"4":         fig4,
		"6":         fig6,
		"7":         fig7,
		"9a":        fig9a,
		"9b":        fig9b,
		"9cd":       fig9cd,
		"10":        fig10,
		"11":        fig11,
		"breakdown": breakdown,
		"lossless":  losslessBaseline,
		"huffman":   huffmanComparison,
		"hybrid":    hybrid,
		"geometry":  geometry,
		"parallel":  func(blocks int) error { return parallelScaling(blocks, *workers) },
	}
	order := []string{"3", "4", "6", "7", "9a", "9b", "9cd", "10", "11",
		"breakdown", "lossless", "huffman", "hybrid", "geometry", "parallel"}

	if *fig == "all" {
		for _, name := range order {
			if err := runs[name](*blocks); err != nil {
				fatal(name, err)
			}
		}
		return
	}
	run, ok := runs[*fig]
	if !ok {
		fatal(*fig, fmt.Errorf("unknown figure (want one of %s, all)", strings.Join(order, ", ")))
	}
	if err := run(*blocks); err != nil {
		fatal(*fig, err)
	}
}

func fatal(fig string, err error) {
	fmt.Fprintf(os.Stderr, "experiments: figure %s: %v\n", fig, err)
	os.Exit(1)
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func fig3(blocks int) error {
	header("Fig. 3 — latent pattern in a (dd|dd) ERI block")
	r, err := experiments.Fig3(blocks)
	if err != nil {
		return err
	}
	fmt.Printf("block amplitude        : %.3e\n", r.BlockAmp)
	fmt.Printf("sub-block 1 scale (ER) : %+.6f\n", r.Scale)
	fmt.Printf("max |deviation|        : %.3e  (%.1e of amplitude)\n",
		r.MaxDeviation, r.MaxDeviation/r.BlockAmp)
	fmt.Println("idx   sub-block0      sub-block1      rescaled1       |dev|")
	for i := 0; i < len(r.SubBlock0); i += 4 {
		fmt.Printf("%3d  %+.6e  %+.6e  %+.6e  %.2e\n",
			i, r.SubBlock0[i], r.SubBlock1[i], r.Rescaled[i], r.AbsDeviation[i])
	}
	return nil
}

func fig4(blocks int) error {
	header("Fig. 4 — compression ratio per pattern-scaling metric (EB 1e-10)")
	rows, err := experiments.Fig4(blocks)
	if err != nil {
		return err
	}
	paper := map[string]string{"FR": "N/A", "ER": "17.46", "AR": "16.92", "AAR": "17.44", "IS": "17.20"}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tmeasured\tpaper")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.2f\t%s\n", r.Metric, r.Ratio, paper[r.Metric.String()])
	}
	return tw.Flush()
}

func fig6(blocks int) error {
	header("Fig. 6 — ECQ value distribution per block type (EB 1e-10)")
	stats, err := experiments.Fig6(blocks)
	if err != nil {
		return err
	}
	total := float64(stats.Blocks)
	for t := core.Type0; t <= core.Type3; t++ {
		fmt.Printf("%s: %d blocks (%.1f%%)\n", t, stats.TypeCount[t],
			100*float64(stats.TypeCount[t])/total)
	}
	fmt.Println("bin (bits)  Type0        Type1        Type2        Type3        total")
	for bin := 1; bin < 33; bin++ {
		row := stats.TotalHist[bin]
		if row == 0 {
			continue
		}
		fmt.Printf("%9d  %-12d %-12d %-12d %-12d %d\n", bin,
			stats.BinHist[0][bin], stats.BinHist[1][bin],
			stats.BinHist[2][bin], stats.BinHist[3][bin], row)
	}
	return nil
}

func fig7(blocks int) error {
	header("Fig. 7 — compression ratio per encoding tree (EB 1e-10, dense ECQ)")
	rows, err := experiments.Fig7(blocks)
	if err != nil {
		return err
	}
	paper := map[string]string{"Tree1": "17.60", "Tree2": "17.34", "Tree3": "17.99",
		"Tree4": "17.41", "Tree5": "18.13"}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "tree\tmeasured\tpaper")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.2f\t%s\n", r.Method, r.Ratio, paper[r.Method.String()])
	}
	return tw.Flush()
}

func fig9a(blocks int) error {
	header("Fig. 9a — compression ratios (SZ vs ZFP vs PaSTRI)")
	rows, err := experiments.Fig9(blocks)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\tEB\tSZ\tZFP\tPaSTRI")
	type key struct {
		ds string
		eb float64
	}
	ratio := map[key]map[string]float64{}
	var keys []key
	for _, r := range rows {
		k := key{r.Dataset, r.EB}
		if ratio[k] == nil {
			ratio[k] = map[string]float64{}
			keys = append(keys, k)
		}
		ratio[k][r.Codec] = r.Report.Ratio
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].eb != keys[j].eb {
			return keys[i].eb < keys[j].eb
		}
		return keys[i].ds < keys[j].ds
	})
	for _, k := range keys {
		fmt.Fprintf(tw, "%s\t%.0e\t%.2f\t%.2f\t%.2f\n", k.ds, k.eb,
			ratio[k]["SZ"], ratio[k]["ZFP"], ratio[k]["PaSTRI"])
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, eb := range experiments.EBs {
		avg := experiments.AverageRatio(rows, eb)
		fmt.Printf("average @ EB %.0e:  SZ %.2f  ZFP %.2f  PaSTRI %.2f   (paper @1e-10: 7.24 / 5.92 / 16.8)\n",
			eb, avg["SZ"], avg["ZFP"], avg["PaSTRI"])
	}
	return nil
}

func fig9b(blocks int) error {
	header("Fig. 9b — PSNR vs bitrate, Alanine (dd|dd)")
	pts, err := experiments.Fig9b(blocks)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "codec\tEB\tbitrate\tPSNR")
	for _, p := range pts {
		fmt.Fprintf(tw, "%s\t%.0e\t%.3f\t%.1f\n", p.Codec, p.EB, p.BitRate, p.PSNR)
	}
	return tw.Flush()
}

func fig9cd(blocks int) error {
	header("Fig. 9c/9d — compression and decompression rates (single core)")
	rows, err := experiments.Fig9(blocks)
	if err != nil {
		return err
	}
	comp, dec := experiments.AverageRate(rows)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "codec\tcompress MB/s\tdecompress MB/s\tpaper (c / d)")
	paper := map[string]string{"SZ": "104.1 / 148.6", "ZFP": "308.5 / 260.5", "PaSTRI": "660 / 1110"}
	for _, c := range experiments.Codecs {
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%s\n", c, comp[c], dec[c], paper[c])
	}
	return tw.Flush()
}

func fig10(blocks int) error {
	header("Fig. 10 — parallel dump (D) and load (L) times, Alanine (dd|dd), GPFS model")
	rows, err := experiments.Fig10(blocks)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "cores\tcodec\tD compress\tD write\tD total\tL read\tL decompress\tL total")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%.1fs\t%.1fs\t%.1fs\t%.1fs\t%.1fs\t%.1fs\n",
			r.Cores, r.Codec,
			r.Dump.Compress.Seconds(), r.Dump.Write.Seconds(), r.Dump.Total().Seconds(),
			r.Load.Read.Seconds(), r.Load.Decompress.Seconds(), r.Load.Total().Seconds())
	}
	return tw.Flush()
}

func fig11(blocks int) error {
	header("Fig. 11 — total time to obtain ERI data 20 times (no disk)")
	rows, err := experiments.Fig11(blocks)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "config\tEB\toriginal (recompute)\tPaSTRI infra\tspeedup")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.0e\t%.2fs\t%.2fs\t%.2fx\n",
			r.Config, r.EB, r.Original.Seconds(), r.Infra.Seconds(), r.Speedup)
	}
	return tw.Flush()
}

func breakdown(blocks int) error {
	header("Sec. V-B — PaSTRI output composition (EB 1e-10)")
	stats, err := experiments.Fig6(blocks)
	if err != nil {
		return err
	}
	ps, ecq, book := stats.Fractions()
	fmt.Printf("PQ+SQ       : %5.1f%%   (paper: 20-30%%)\n", ps*100)
	fmt.Printf("ECQ         : %5.1f%%   (paper: 70-80%%)\n", ecq*100)
	fmt.Printf("bookkeeping : %5.2f%%   (paper: <0.5%%)\n", book*100)
	fmt.Printf("sparse ECQ  : %d of %d blocks chose the sparse representation\n",
		stats.SparseBlocks, stats.Blocks)
	return nil
}

func huffmanComparison(blocks int) error {
	header("Sec. IV-C — fixed trees vs Huffman for ECQ ((dd|dd) workload)")
	r, err := experiments.HuffmanComparison(blocks)
	if err != nil {
		return err
	}
	perVal := func(bits uint64) float64 { return float64(bits) / float64(r.Values) }
	fmt.Printf("blocks %d, values %d, distinct ECQ symbols %d (%.0f%% single-occurrence)\n",
		r.Blocks, r.Values, r.DistinctSymbols,
		100*float64(r.SingleOccurrence)/float64(r.DistinctSymbols))
	fmt.Printf("Tree 5 (shipped)    : %12d bits  (%.3f bits/value)\n", r.Tree5Bits, perVal(r.Tree5Bits))
	fmt.Printf("Huffman, per block  : %12d bits  (%.3f bits/value; dictionaries %d bits = %.0f%%)\n",
		r.HuffmanPerBlock, perVal(r.HuffmanPerBlock), r.HuffmanPerBlkDict,
		100*float64(r.HuffmanPerBlkDict)/float64(r.HuffmanPerBlock))
	fmt.Printf("Huffman, global dict: %12d bits  (%.3f bits/value; dictionary %d bits)\n",
		r.HuffmanGlobal, perVal(r.HuffmanGlobal), r.HuffmanGlobalDict)
	fmt.Println("(global Huffman also serializes the workload — Sec. IV-C point 3)")
	return nil
}

func hybrid(blocks int) error {
	header("Sec. V-A — hybrid d/f configurations ((df|fd), etc.)")
	r, err := experiments.Hybrid(blocks)
	if err != nil {
		return err
	}
	fmt.Printf("blocks %d across %d distinct geometries, %0.1f MB raw\n",
		r.Blocks, r.Sections, float64(r.RawBytes)/1e6)
	fmt.Printf("hybrid container ratio : %.2f\n", r.Ratio)
	fmt.Printf("pure (dd|dd)+(ff|ff)   : %.2f (mean)\n", r.PureDDFF)
	fmt.Printf("max |error|            : %.3e (bound %.0e)\n", r.MaxAbsErr, r.ErrorBound)
	fmt.Println("(paper: hybrid metrics \"follow very similar trends\" of the pure ones)")
	return nil
}

func geometry(blocks int) error {
	header("Sec. III-B — block geometry must match the BF configuration")
	rows, err := experiments.GeometryAblation(blocks)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "geometry\tratio")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.2f\n", r.Label, r.Ratio)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Println("(the error bound holds in every case; only the ratio depends on the period)")
	return nil
}

func parallelScaling(blocks, maxWorkers int) error {
	header("Sec. IV-C — block-parallel throughput vs worker count, Alanine (dd|dd)")
	rows, err := experiments.ParallelScaling(blocks, maxWorkers)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workers\tcompress MB/s\tdecompress MB/s\tspeedup (c)\tefficiency")
	base := rows[0].CompressMBps
	for _, r := range rows {
		speedup := r.CompressMBps / base
		fmt.Fprintf(tw, "%d\t%.0f\t%.0f\t%.2fx\t%.0f%%\n",
			r.Workers, r.CompressMBps, r.DecompressMBps, speedup,
			100*speedup/float64(r.Workers))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Println("(output bytes are identical at every worker count; see DESIGN.md)")
	return nil
}

func losslessBaseline(blocks int) error {
	header("Sec. II premise — lossless (DEFLATE) baseline")
	ratio, err := experiments.LosslessBaseline(blocks)
	if err != nil {
		return err
	}
	fmt.Printf("Gzip/DEFLATE ratio on the ERI workload: %.2f  (paper: 1.1-2x)\n", ratio)
	return nil
}
