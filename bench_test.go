package pastri_test

// One benchmark per table/figure of the paper's evaluation (see
// DESIGN.md's experiment index), plus codec micro-benchmarks and
// ablations. Figure-level benchmarks execute the corresponding
// experiments harness and report the headline quantities via
// b.ReportMetric; cmd/experiments renders the same results as tables.
//
// Datasets are generated on first use and cached under the system temp
// directory; the first `go test -bench` run pays ERI-generation time.

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	pastri "repro"
	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/sz"
	"repro/internal/zfp"
)

// benchBlocks is the per-dataset block count for benchmarks: large
// enough for stable statistics, small enough to keep -bench runs in
// minutes.
const benchBlocks = 300

type benchDataset struct {
	data          []float64
	numSB, sbSize int
	rawBytes      int64
}

func getDataset(b *testing.B, mol string, l int) *benchDataset {
	b.Helper()
	ds, err := dataset.Get(dataset.Spec{Molecule: mol, L: l, MaxBlocks: benchBlocks})
	if err != nil {
		b.Fatal(err)
	}
	return &benchDataset{ds.Data, ds.NumSB, ds.SBSize, int64(ds.SizeBytes())}
}

// ------------------------------------------------------------------
// Figure-level benchmarks.

func BenchmarkFig3PatternDemo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(benchBlocks)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MaxDeviation/r.BlockAmp, "rel-deviation")
	}
}

func BenchmarkFig4ScalingMetrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig4(benchBlocks)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Ratio, "ratio-"+r.Metric.String())
		}
	}
}

func BenchmarkFig6ECQDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stats, err := experiments.Fig6(benchBlocks)
		if err != nil {
			b.Fatal(err)
		}
		total := float64(stats.Blocks)
		b.ReportMetric(100*float64(stats.TypeCount[0]+stats.TypeCount[1])/total, "pct-type01")
	}
}

func BenchmarkFig7EncodingTrees(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(benchBlocks)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Ratio, "ratio-"+r.Method.String())
		}
	}
}

func BenchmarkFig9aCompressionRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig9(benchBlocks)
		if err != nil {
			b.Fatal(err)
		}
		avg := experiments.AverageRatio(rows, 1e-10)
		for codec, ratio := range avg {
			b.ReportMetric(ratio, "ratio-"+codec)
		}
	}
}

func BenchmarkFig9bRateDistortion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig9b(benchBlocks)
		if err != nil {
			b.Fatal(err)
		}
		// Headline: PSNR advantage of PaSTRI over SZ at matched EB 1e-10.
		var pastriBR, szBR float64
		for _, p := range pts {
			if p.EB == 1e-10 {
				switch p.Codec {
				case "PaSTRI":
					pastriBR = p.BitRate
				case "SZ":
					szBR = p.BitRate
				}
			}
		}
		b.ReportMetric(szBR/pastriBR, "bitrate-advantage-vs-SZ")
	}
}

func BenchmarkFig10ParallelIO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10(benchBlocks)
		if err != nil {
			b.Fatal(err)
		}
		// Headline: dump speedup of PaSTRI over SZ at 2048 cores.
		var p, s float64
		for _, r := range rows {
			if r.Cores == 2048 {
				switch r.Codec {
				case "PaSTRI":
					p = r.Dump.Total().Seconds()
				case "SZ":
					s = r.Dump.Total().Seconds()
				}
			}
		}
		b.ReportMetric(s/p, "dump-speedup-vs-SZ")
	}
}

func BenchmarkFig11ReuseSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11(benchBlocks)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.EB == 1e-10 {
				b.ReportMetric(r.Speedup, "speedup-"+r.Config)
			}
		}
	}
}

func BenchmarkOutputBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ps, ecq, book, err := experiments.Breakdown(benchBlocks)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ps*100, "pct-pq-sq")
		b.ReportMetric(ecq*100, "pct-ecq")
		b.ReportMetric(book*100, "pct-bookkeeping")
	}
}

// ------------------------------------------------------------------
// Codec micro-benchmarks (Fig. 9c/9d measured the testing.B way):
// bytes/op throughput per codec on the alanine (dd|dd) dataset.

func BenchmarkFig9cCompressRate(b *testing.B) {
	ds := getDataset(b, "alanine", 2)
	const eb = 1e-10
	b.Run("SZ", func(b *testing.B) {
		b.SetBytes(ds.rawBytes)
		for i := 0; i < b.N; i++ {
			if _, err := sz.Compress(ds.data, eb); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ZFP", func(b *testing.B) {
		b.SetBytes(ds.rawBytes)
		for i := 0; i < b.N; i++ {
			if _, err := zfp.Compress(ds.data, eb); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PaSTRI", func(b *testing.B) {
		opts := pastri.NewOptions(ds.numSB, ds.sbSize, eb)
		opts.Workers = 1
		b.SetBytes(ds.rawBytes)
		for i := 0; i < b.N; i++ {
			if _, err := pastri.Compress(ds.data, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFig9dDecompressRate(b *testing.B) {
	ds := getDataset(b, "alanine", 2)
	const eb = 1e-10
	szComp, err := sz.Compress(ds.data, eb)
	if err != nil {
		b.Fatal(err)
	}
	zfpComp, err := zfp.Compress(ds.data, eb)
	if err != nil {
		b.Fatal(err)
	}
	opts := pastri.NewOptions(ds.numSB, ds.sbSize, eb)
	opts.Workers = 1
	pComp, err := pastri.Compress(ds.data, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("SZ", func(b *testing.B) {
		b.SetBytes(ds.rawBytes)
		for i := 0; i < b.N; i++ {
			if _, err := sz.Decompress(szComp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ZFP", func(b *testing.B) {
		b.SetBytes(ds.rawBytes)
		for i := 0; i < b.N; i++ {
			if _, err := zfp.Decompress(zfpComp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PaSTRI", func(b *testing.B) {
		b.SetBytes(ds.rawBytes)
		for i := 0; i < b.N; i++ {
			if _, err := pastri.DecompressWorkers(pComp, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ------------------------------------------------------------------
// Ablations called out in DESIGN.md.

// BenchmarkHybridConfigurations measures the paper's hybrid d/f
// workload through the multi-section container.
func BenchmarkHybridConfigurations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Hybrid(benchBlocks)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Ratio, "ratio-hybrid")
		b.ReportMetric(r.PureDDFF, "ratio-pure-mean")
	}
}

// BenchmarkAblationGeometry quantifies Sec. III-B: the compression
// ratio collapses when the block period doesn't match the BF
// configuration.
func BenchmarkAblationGeometry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.GeometryAblation(benchBlocks)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Ratio, "ratio-"+fmt.Sprintf("%dx%d", r.NumSB, r.SBSize))
		}
	}
}

// BenchmarkAblationHuffman quantifies Sec. IV-C's argument for fixed
// trees over Huffman on the ECQ streams.
func BenchmarkAblationHuffman(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.HuffmanComparison(benchBlocks)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.HuffmanPerBlock)/float64(r.Tree5Bits), "huffman-overhead-x")
	}
}

// BenchmarkAblationSparse measures the sparse/dense adaptive choice's
// contribution to the compression ratio.
func BenchmarkAblationSparse(b *testing.B) {
	ds := getDataset(b, "alanine", 2)
	for _, disable := range []bool{false, true} {
		name := "adaptive"
		if disable {
			name = "dense-only"
		}
		b.Run(name, func(b *testing.B) {
			opts := pastri.NewOptions(ds.numSB, ds.sbSize, 1e-10)
			opts.DisableSparse = disable
			b.SetBytes(ds.rawBytes)
			for i := 0; i < b.N; i++ {
				comp, err := pastri.Compress(ds.data, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(ds.rawBytes)/float64(len(comp)), "ratio")
			}
		})
	}
}

// BenchmarkAblationSZPredictor compares SZ's prediction models on ERI
// data (Lorenzo wins; the curve-fitting orders amplify noise).
func BenchmarkAblationSZPredictor(b *testing.B) {
	ds := getDataset(b, "alanine", 2)
	defer sz.SetPredictorOrder(1)
	for order := 1; order <= 3; order++ {
		b.Run(fmt.Sprintf("order%d", order), func(b *testing.B) {
			sz.SetPredictorOrder(order)
			b.SetBytes(ds.rawBytes)
			for i := 0; i < b.N; i++ {
				comp, err := sz.Compress(ds.data, 1e-10)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(ds.rawBytes)/float64(len(comp)), "ratio")
			}
		})
	}
}

// BenchmarkParallelScaling measures PaSTRI's block-parallel throughput
// at increasing worker counts (Sec. IV-C: "highly parallelizable").
func BenchmarkParallelScaling(b *testing.B) {
	ds := getDataset(b, "alanine", 2)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			opts := pastri.NewOptions(ds.numSB, ds.sbSize, 1e-10)
			opts.Workers = workers
			b.SetBytes(ds.rawBytes)
			for i := 0; i < b.N; i++ {
				if _, err := pastri.Compress(ds.data, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompressWorkers compares the serial path (Options.Workers
// = 1) against 2/4/8 workers on ERI-shaped blocks. Output bytes are
// identical at every worker count (asserted once up front), so this
// measures pure scheduling overhead/speedup. Speedup tracks physical
// cores; on a single-core machine the curve is flat.
func BenchmarkCompressWorkers(b *testing.B) {
	benchCompressWorkers(b, getDataset(b, "alanine", 2))
}

// BenchmarkCompressWorkersFF runs the same worker sweep on the
// (ff|ff) configuration — 100×100-point blocks, the paper's
// heavyweight shape — and is the acceptance gate for kernel-level
// optimisations (see BENCH_PR9.json for the tracked trajectory).
func BenchmarkCompressWorkersFF(b *testing.B) {
	benchCompressWorkers(b, getDataset(b, "alanine", 3))
}

// benchCompressWorkers is the worker sweep behind both benchmarks; the
// sub-benchmark names (serial, workers2/4/8) are what bench-gate and
// the committed BENCH records key on.
func benchCompressWorkers(b *testing.B, ds *benchDataset) {
	opts := pastri.NewOptions(ds.numSB, ds.sbSize, 1e-10)
	opts.Workers = 1
	serial, err := pastri.Compress(ds.data, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		b.SetBytes(ds.rawBytes)
		for i := 0; i < b.N; i++ {
			if _, err := pastri.Compress(ds.data, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			opts := opts
			opts.Workers = workers
			comp, err := pastri.Compress(ds.data, opts)
			if err != nil {
				b.Fatal(err)
			}
			if !bytes.Equal(comp, serial) {
				b.Fatalf("workers=%d output differs from serial", workers)
			}
			b.SetBytes(ds.rawBytes)
			for i := 0; i < b.N; i++ {
				if _, err := pastri.Compress(ds.data, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecompressCollect measures whole-stream decompression (the
// decode-side counterpart of BenchmarkCompressWorkers), with and
// without a live collector, at 1 and 4 workers. The name predates
// DecompressLogged; bench-gate and the committed BENCH records key on
// it.
func BenchmarkDecompressCollect(b *testing.B) {
	ds := getDataset(b, "alanine", 2)
	opts := pastri.NewOptions(ds.numSB, ds.sbSize, 1e-10)
	comp, err := pastri.Compress(ds.data, opts)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.SetBytes(ds.rawBytes)
			for i := 0; i < b.N; i++ {
				if _, err := pastri.DecompressWorkers(comp, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("collector", func(b *testing.B) {
		col := pastri.NewCollector()
		b.SetBytes(ds.rawBytes)
		for i := 0; i < b.N; i++ {
			if _, err := pastri.DecompressLogged(comp, 1, col, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStreamWriter measures the incremental path: blocks submitted
// one at a time, encoded over Options.Workers goroutines, payloads
// sequenced in order.
func BenchmarkStreamWriter(b *testing.B) {
	ds := getDataset(b, "alanine", 2)
	opts := pastri.NewOptions(ds.numSB, ds.sbSize, 1e-10)
	bs := opts.BlockSize()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			opts := opts
			opts.Workers = workers
			b.SetBytes(ds.rawBytes)
			for i := 0; i < b.N; i++ {
				w, err := pastri.NewStreamWriter(io.Discard, opts)
				if err != nil {
					b.Fatal(err)
				}
				for blk := 0; blk*bs < len(ds.data); blk++ {
					if err := w.WriteBlock(ds.data[blk*bs : (blk+1)*bs]); err != nil {
						b.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTelemetryOverhead compares compression with no collector
// (the default: every telemetry call is a nil-receiver early return,
// no clock reads) against a live collector with the trace ring on.
// The disabled sub-benchmark is the acceptance gate: it must stay
// within 2% of a build that predates the telemetry layer, which in
// practice means within noise of the enabled=false path since the
// instrumentation compiles to an untaken branch. Run both serial, so
// scheduling variance doesn't mask the per-block cost.
func BenchmarkTelemetryOverhead(b *testing.B) {
	ds := getDataset(b, "alanine", 2)
	b.Run("disabled", func(b *testing.B) {
		opts := pastri.NewOptions(ds.numSB, ds.sbSize, 1e-10)
		opts.Workers = 1
		b.SetBytes(ds.rawBytes)
		for i := 0; i < b.N; i++ {
			if _, err := pastri.Compress(ds.data, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		opts := pastri.NewOptions(ds.numSB, ds.sbSize, 1e-10)
		opts.Workers = 1
		opts.Collector = pastri.NewCollector()
		b.SetBytes(ds.rawBytes)
		for i := 0; i < b.N; i++ {
			if _, err := pastri.Compress(ds.data, opts); err != nil {
				b.Fatal(err)
			}
		}
		if snap := opts.Collector.Snapshot(); snap.Blocks == 0 {
			b.Fatal("collector recorded nothing")
		}
	})
}

// BenchmarkBlockCodec isolates the per-block encode/decode hot path
// (one (dd|dd) block, no stream framing).
func BenchmarkBlockCodec(b *testing.B) {
	ds := getDataset(b, "alanine", 2)
	cfg := core.Defaults(ds.numSB, ds.sbSize, 1e-10)
	block := ds.data[:cfg.BlockSize()]
	b.Run("encode", func(b *testing.B) {
		enc, err := core.NewBlockEncoder(cfg)
		if err != nil {
			b.Fatal(err)
		}
		w := bitio.NewWriter(4096)
		b.SetBytes(int64(len(block) * 8))
		for i := 0; i < b.N; i++ {
			w.Reset()
			if err := enc.EncodeBlock(w, block); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecodeBlock isolates the per-block decode hot path on (dd|dd)
// and (ff|ff) shaped blocks: one reused decoder, one reused reader, a
// preallocated destination — the steady state of DecompressLogged's
// inner loop, and the subject of TestDecodeBlockAllocs.
func BenchmarkDecodeBlock(b *testing.B) {
	for _, shape := range []struct {
		name string
		l    int
	}{{"dd", 2}, {"ff", 3}} {
		b.Run(shape.name, func(b *testing.B) {
			ds := getDataset(b, "alanine", shape.l)
			cfg := core.Defaults(ds.numSB, ds.sbSize, 1e-10)
			block := ds.data[:cfg.BlockSize()]
			enc, err := core.NewBlockEncoder(cfg)
			if err != nil {
				b.Fatal(err)
			}
			w := bitio.NewWriter(4096)
			if err := enc.EncodeBlock(w, block); err != nil {
				b.Fatal(err)
			}
			payload := append([]byte(nil), w.Bytes()...)
			dec, err := core.NewBlockDecoder(cfg)
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]float64, cfg.BlockSize())
			r := bitio.NewReader(nil)
			b.SetBytes(int64(len(block) * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Reset(payload)
				if err := dec.DecodeBlock(r, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
