package harness

import (
	"fmt"
	"io"
	"time"

	"hzccl/internal/datasets"
	"hzccl/internal/fanout"
	"hzccl/internal/fzlight"
	"hzccl/internal/hzdyn"
	"hzccl/internal/metrics"
	"hzccl/internal/ompszp"
	"hzccl/internal/stream"
)

// relBounds is the relative-error-bound sweep of Tables III–VI.
var relBounds = []float64{1e-1, 1e-2, 1e-3, 1e-4}

func init() {
	register(Experiment{ID: "table3", Title: "Compression quality (NRMSE/STD) and ratio: fZ-light vs ompSZp", Run: runTable3})
	register(Experiment{ID: "fig6", Title: "Compression/decompression throughput (GB/s): fZ-light vs ompSZp", Run: runFig6})
	register(Experiment{ID: "table4", Title: "Memory bandwidth efficiency vs STREAM peak", Run: runTable4})
	register(Experiment{ID: "table5", Title: "hZ-dynamic throughput and pipeline selection percentages", Run: runTable5})
	register(Experiment{ID: "table6", Title: "Overall reduce performance: hZ-dynamic vs fZ-light (DOC)", Run: runTable6})
}

// bestOf runs f trials times and returns the shortest duration. It is the
// one timer of every codec figure this package reports (Fig. 6, Tables
// IV–VI, each timed once, and the rates the collective and stacking
// experiments calibrate as the best of two), and it times on one core
// (fanout.Inline): those figures are single-thread ones, or scaled by the
// modelled MTSpeedup, and must not gain a core when the codec splits a
// long chunk across cores.
func bestOf(trials int, f func() error) (best time.Duration, err error) {
	best = time.Duration(1 << 62)
	fanout.Inline(func() {
		for i := 0; i < trials && err == nil; i++ {
			t0 := time.Now()
			if err = f(); err == nil {
				best = min(best, time.Since(t0))
			}
		}
	})
	return best, err
}

func runTable3(w io.Writer, opt Options) error {
	opt = opt.WithDefaults()
	t := NewTable("Dataset", "REL", "fZ Ratio", "fZ NRMSE", "fZ STD", "omp Ratio", "omp NRMSE", "omp STD")
	for _, name := range datasets.Names() {
		data, err := datasets.Field(name, 0, opt.Len)
		if err != nil {
			return err
		}
		raw := 4 * len(data)
		for _, rel := range relBounds {
			eb := metrics.AbsBound(rel, data)

			fc, err := fzlight.Compress(data, fzlight.Params{ErrorBound: eb})
			if err != nil {
				return fmt.Errorf("%s rel=%g: %w", name, rel, err)
			}
			fd, err := fzlight.Decompress(fc)
			if err != nil {
				return err
			}
			fs := metrics.Compare(data, fd)

			oc, err := ompszp.Compress(data, ompszp.Params{ErrorBound: eb})
			if err != nil {
				return err
			}
			od, err := ompszp.Decompress(oc)
			if err != nil {
				return err
			}
			os := metrics.Compare(data, od)

			t.Row(name, E(rel),
				F(metrics.Ratio(raw, len(fc))), E(fs.NRMSE), E(fs.ErrStd),
				F(metrics.Ratio(raw, len(oc))), E(os.NRMSE), E(os.ErrStd))
		}
	}
	t.Fprint(w)
	return nil
}

func runFig6(w io.Writer, opt Options) error {
	opt = opt.WithDefaults()
	t := NewTable("Dataset", "REL", "fZ Compr GB/s", "fZ Decom GB/s", "omp Compr GB/s", "omp Decom GB/s",
		"Compr speedup", "Decom speedup")
	for _, name := range datasets.Names() {
		data, err := datasets.Field(name, 0, opt.Len)
		if err != nil {
			return err
		}
		raw := 4 * len(data)
		out := make([]float32, len(data))
		for _, rel := range relBounds {
			eb := metrics.AbsBound(rel, data)
			fp := fzlight.Params{ErrorBound: eb}
			fc, err := fzlight.Compress(data, fp)
			if err != nil {
				return err
			}
			tFC, err := bestOf(1, func() error { _, err := fzlight.Compress(data, fp); return err })
			if err != nil {
				return err
			}
			tFD, err := bestOf(1, func() error { return fzlight.DecompressInto(fc, out) })
			if err != nil {
				return err
			}

			op := ompszp.Params{ErrorBound: eb}
			oc, err := ompszp.Compress(data, op)
			if err != nil {
				return err
			}
			oh, err := ompszp.ParseHeader(oc)
			if err != nil {
				return err
			}
			tOC, err := bestOf(1, func() error { _, err := ompszp.Compress(data, op); return err })
			if err != nil {
				return err
			}
			tOD, err := bestOf(1, func() error { _, err := ompszp.DecompressThreads(oc, oh, 1); return err })
			if err != nil {
				return err
			}

			fcGBs := metrics.GBps(raw, tFC.Seconds())
			fdGBs := metrics.GBps(raw, tFD.Seconds())
			ocGBs := metrics.GBps(raw, tOC.Seconds())
			odGBs := metrics.GBps(raw, tOD.Seconds())
			t.Row(name, E(rel), F(fcGBs), F(fdGBs), F(ocGBs), F(odGBs),
				F(fcGBs/ocGBs)+"x", F(fdGBs/odGBs)+"x")
		}
	}
	t.Fprint(w)
	return nil
}

func runTable4(w io.Writer, opt Options) error {
	opt = opt.WithDefaults()
	streamN := 1 << 23
	iters := 5
	if opt.Quick {
		streamN = 1 << 21
		iters = 3
	}
	peakRes := stream.Run(streamN, iters)
	peak := peakRes.Best()
	fmt.Fprintf(w, "STREAM (n=%d): Copy %.2f  Scale %.2f  Add %.2f  Triad %.2f  => peak %.2f GB/s\n\n",
		streamN, peakRes.Copy, peakRes.Scale, peakRes.Add, peakRes.Triad, peak)

	t := NewTable("Dataset", "REL", "omp Compr", "omp Decom", "fZ Compr", "fZ Decom")
	for _, name := range []string{"SimSet2", "NYX"} {
		data, err := datasets.Field(name, 0, opt.Len)
		if err != nil {
			return err
		}
		raw := 4 * len(data)
		out := make([]float32, len(data))
		for _, rel := range []float64{1e-3, 1e-4} {
			eb := metrics.AbsBound(rel, data)
			fp := fzlight.Params{ErrorBound: eb}
			fc, _ := fzlight.Compress(data, fp)
			tFC, err := bestOf(1, func() error { _, err := fzlight.Compress(data, fp); return err })
			if err != nil {
				return err
			}
			tFD, err := bestOf(1, func() error { return fzlight.DecompressInto(fc, out) })
			if err != nil {
				return err
			}
			op := ompszp.Params{ErrorBound: eb}
			oc, _ := ompszp.Compress(data, op)
			oh, _ := ompszp.ParseHeader(oc)
			tOC, err := bestOf(1, func() error { _, err := ompszp.Compress(data, op); return err })
			if err != nil {
				return err
			}
			tOD, err := bestOf(1, func() error { _, err := ompszp.DecompressThreads(oc, oh, 1); return err })
			if err != nil {
				return err
			}
			eff := func(d time.Duration) string {
				return Pct(metrics.GBps(raw, d.Seconds()) / peak)
			}
			t.Row(name, E(rel), eff(tOC), eff(tOD), eff(tFC), eff(tFD))
		}
	}
	t.Fprint(w)
	return nil
}

func runTable5(w io.Writer, opt Options) error {
	opt = opt.WithDefaults()
	t := NewTable("Dataset", "Speedup", "hZ GB/s", "Pipeline1", "Pipeline2", "Pipeline3", "Pipeline4")
	for _, name := range datasets.Names() {
		a, b, err := datasets.Pair(name, opt.Len)
		if err != nil {
			return err
		}
		eb := metrics.AbsBound(1e-3, a)
		if eb2 := metrics.AbsBound(1e-3, b); eb2 > eb {
			eb = eb2
		}
		p := fzlight.Params{ErrorBound: eb}
		ca, err := fzlight.Compress(a, p)
		if err != nil {
			return err
		}
		cb, err := fzlight.Compress(b, p)
		if err != nil {
			return err
		}
		raw := 4 * len(a)

		var stats hzdyn.Stats
		tHZ, err := bestOf(1, func() error {
			_, st, err := hzdyn.Add(ca, cb)
			stats = st
			return err
		})
		if err != nil {
			return err
		}
		tDOC, err := bestOf(1, func() error { return docReduce(ca, cb, p) })
		if err != nil {
			return err
		}

		t.Row(name,
			F(tDOC.Seconds()/tHZ.Seconds()),
			F(metrics.GBps(raw, tHZ.Seconds())),
			Pct(stats.Fraction(hzdyn.PipelineBothConstant)),
			Pct(stats.Fraction(hzdyn.PipelineLeftConstant)),
			Pct(stats.Fraction(hzdyn.PipelineRightConstant)),
			Pct(stats.Fraction(hzdyn.PipelineBothEncoded)))
	}
	t.Fprint(w)
	return nil
}

// docReduce is the traditional DOC workflow the paper compares hZ-dynamic
// against: decompress both operands, add in the raw domain, recompress.
func docReduce(ca, cb []byte, p fzlight.Params) error {
	da, err := fzlight.Decompress(ca)
	if err != nil {
		return err
	}
	db, err := fzlight.Decompress(cb)
	if err != nil {
		return err
	}
	for i := range da {
		da[i] += db[i]
	}
	_, err = fzlight.Compress(da, p)
	return err
}

func runTable6(w io.Writer, opt Options) error {
	opt = opt.WithDefaults()
	t := NewTable("Dataset", "REL", "hZ GB/s", "hZ Ratio", "hZ NRMSE", "DOC GB/s", "DOC Ratio", "DOC NRMSE", "Speedup")
	for _, name := range datasets.Names() {
		a, b, err := datasets.Pair(name, opt.Len)
		if err != nil {
			return err
		}
		raw := 4 * len(a)
		exact := make([]float64, len(a))
		for i := range a {
			exact[i] = float64(a[i]) + float64(b[i])
		}
		exact32 := make([]float32, len(a))
		for i := range exact {
			exact32[i] = float32(exact[i])
		}
		for _, rel := range relBounds {
			eb := metrics.AbsBound(rel, a)
			if eb2 := metrics.AbsBound(rel, b); eb2 > eb {
				eb = eb2
			}
			p := fzlight.Params{ErrorBound: eb}
			ca, err := fzlight.Compress(a, p)
			if err != nil {
				return err
			}
			cb, err := fzlight.Compress(b, p)
			if err != nil {
				return err
			}

			// hZ-dynamic: direct homomorphic reduce.
			var hsum []byte
			tHZ, err := bestOf(1, func() error {
				s, _, err := hzdyn.Add(ca, cb)
				hsum = s
				return err
			})
			if err != nil {
				return err
			}
			hd, err := fzlight.Decompress(hsum)
			if err != nil {
				return err
			}
			hstats := metrics.Compare(exact32, hd)

			// DOC: decompress both, add, recompress.
			var dsum []byte
			tDOC, err := bestOf(1, func() error {
				da, err := fzlight.Decompress(ca)
				if err != nil {
					return err
				}
				db, err := fzlight.Decompress(cb)
				if err != nil {
					return err
				}
				for i := range da {
					da[i] += db[i]
				}
				dsum, err = fzlight.Compress(da, p)
				return err
			})
			if err != nil {
				return err
			}
			dd, err := fzlight.Decompress(dsum)
			if err != nil {
				return err
			}
			dstats := metrics.Compare(exact32, dd)

			t.Row(name, E(rel),
				F(metrics.GBps(raw, tHZ.Seconds())), F(metrics.Ratio(raw, len(hsum))), E(hstats.NRMSE),
				F(metrics.GBps(raw, tDOC.Seconds())), F(metrics.Ratio(raw, len(dsum))), E(dstats.NRMSE),
				F(tDOC.Seconds()/tHZ.Seconds())+"x")
		}
	}
	t.Fprint(w)
	return nil
}
