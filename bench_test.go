// Benchmarks regenerating every table and figure of the hZCCL paper's
// evaluation (one benchmark per element, named after it), plus ablation
// benches for the design choices DESIGN.md calls out. Custom metrics:
//
//	ratio        compression ratio (raw/compressed)
//	speedup      baseline time / optimized time
//	frac-*       runtime breakdown fractions
//
// Run: go test -bench=. -benchmem .
package hzccl

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"hzccl/internal/bitio"
	"hzccl/internal/cluster"
	"hzccl/internal/core"
	"hzccl/internal/datasets"
	"hzccl/internal/fzlight"
	"hzccl/internal/hzdyn"
	"hzccl/internal/imagestack"
	"hzccl/internal/metrics"
	"hzccl/internal/ompszp"
	"hzccl/internal/stream"
	"hzccl/internal/szx"
)

const benchLen = 1 << 19 // elements per field in compressor benches

func benchField(b *testing.B, name string) []float32 {
	b.Helper()
	data, err := datasets.Field(name, 0, benchLen)
	if err != nil {
		b.Fatal(err)
	}
	return data
}

func benchPair(b *testing.B, name string) (x, y []float32) {
	b.Helper()
	x, y, err := datasets.Pair(name, benchLen)
	if err != nil {
		b.Fatal(err)
	}
	return x, y
}

// BenchmarkTable3Ratio reports the compression ratios of fZ-light and
// ompSZp per dataset at REL 1e-3 (Table III's centre column).
func BenchmarkTable3Ratio(b *testing.B) {
	for _, name := range datasets.Names() {
		b.Run(name, func(b *testing.B) {
			data := benchField(b, name)
			eb := metrics.AbsBound(1e-3, data)
			var fzLen, ompLen int
			b.SetBytes(int64(4 * len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fc, err := fzlight.Compress(data, fzlight.Params{ErrorBound: eb})
				if err != nil {
					b.Fatal(err)
				}
				fzLen = len(fc)
			}
			oc, err := ompszp.Compress(data, ompszp.Params{ErrorBound: eb})
			if err != nil {
				b.Fatal(err)
			}
			ompLen = len(oc)
			b.ReportMetric(metrics.Ratio(4*len(data), fzLen), "ratio-fz")
			b.ReportMetric(metrics.Ratio(4*len(data), ompLen), "ratio-omp")
		})
	}
}

// BenchmarkFig6 measures compression and decompression throughput of both
// compressors (Figure 6's bars; b.SetBytes makes MB/s visible).
func BenchmarkFig6(b *testing.B) {
	for _, name := range []string{"SimSet2", "NYX", "CESM-ATM"} {
		data := benchField(b, name)
		eb := metrics.AbsBound(1e-3, data)
		fp := fzlight.Params{ErrorBound: eb}
		fc, err := fzlight.Compress(data, fp)
		if err != nil {
			b.Fatal(err)
		}
		op := ompszp.Params{ErrorBound: eb}
		oc, err := ompszp.Compress(data, op)
		if err != nil {
			b.Fatal(err)
		}
		oh, err := ompszp.ParseHeader(oc)
		if err != nil {
			b.Fatal(err)
		}
		out := make([]float32, len(data))

		b.Run(name+"/fz-compress", func(b *testing.B) {
			b.SetBytes(int64(4 * len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fzlight.Compress(data, fp); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/fz-decompress", func(b *testing.B) {
			b.SetBytes(int64(4 * len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fzlight.DecompressInto(fc, out); err != nil {
					b.Fatal(err)
				}
			}
		})
		ompDst := make([]byte, ompszp.CompressBound(len(data), op))
		b.Run(name+"/omp-compress", func(b *testing.B) {
			b.SetBytes(int64(4 * len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ompszp.CompressInto(ompDst, data, op); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/omp-decompress", func(b *testing.B) {
			b.SetBytes(int64(4 * len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := ompszp.DecompressInto(out, oc, oh, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable4Stream measures the STREAM peak this machine's
// memory-bandwidth efficiencies are computed against.
func BenchmarkTable4Stream(b *testing.B) {
	n := 1 << 21
	b.SetBytes(int64(24 * n)) // triad traffic
	b.ReportAllocs()
	var peak float64
	for i := 0; i < b.N; i++ {
		peak = stream.Run(n, 1).Best()
	}
	b.ReportMetric(peak, "peak-GB/s")
}

// BenchmarkTable5HomomorphicAdd measures hZ-dynamic reducing the Table V
// field pairs, reporting the dominant pipeline fraction.
func BenchmarkTable5HomomorphicAdd(b *testing.B) {
	for _, name := range datasets.Names() {
		b.Run(name, func(b *testing.B) {
			x, y := benchPair(b, name)
			eb := metrics.AbsBound(1e-3, x)
			if e2 := metrics.AbsBound(1e-3, y); e2 > eb {
				eb = e2
			}
			p := fzlight.Params{ErrorBound: eb}
			cx, err := fzlight.Compress(x, p)
			if err != nil {
				b.Fatal(err)
			}
			cy, err := fzlight.Compress(y, p)
			if err != nil {
				b.Fatal(err)
			}
			var st hzdyn.Stats
			b.SetBytes(int64(4 * len(x)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err = hzdyn.Add(cx, cy)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(st.Fraction(hzdyn.PipelineBothConstant), "frac-p1")
			b.ReportMetric(st.Fraction(hzdyn.PipelineBothEncoded), "frac-p4")
		})
	}
}

// BenchmarkTable6 compares the homomorphic reduce against the traditional
// DOC workflow (decompress both, add, recompress) on each dataset.
func BenchmarkTable6(b *testing.B) {
	for _, name := range datasets.Names() {
		x, y := benchPair(b, name)
		eb := metrics.AbsBound(1e-3, x)
		if e2 := metrics.AbsBound(1e-3, y); e2 > eb {
			eb = e2
		}
		p := fzlight.Params{ErrorBound: eb}
		cx, _ := fzlight.Compress(x, p)
		cy, _ := fzlight.Compress(y, p)

		b.Run(name+"/hz-dynamic", func(b *testing.B) {
			b.SetBytes(int64(4 * len(x)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := hzdyn.Add(cx, cy); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/doc", func(b *testing.B) {
			b.SetBytes(int64(4 * len(x)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dx, err := fzlight.Decompress(cx)
				if err != nil {
					b.Fatal(err)
				}
				dy, err := fzlight.Decompress(cy)
				if err != nil {
					b.Fatal(err)
				}
				for j := range dx {
					dx[j] += dy[j]
				}
				if _, err := fzlight.Compress(dx, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// collectiveBench holds shared inputs for the collective benchmarks.
type collectiveBench struct {
	nodes int
	n     int
	eb    float64
	rates *core.Rates
	data  [][]float32
}

func newCollectiveBench(b *testing.B, nodes, n int) *collectiveBench {
	b.Helper()
	cb := &collectiveBench{nodes: nodes, n: n}
	cb.data = make([][]float32, nodes)
	for r := range cb.data {
		cb.data[r] = sparseSnapshot(n, r, nodes)
	}
	cb.eb = metrics.AbsBound(1e-4, cb.data[0])
	// Calibrated rates typical for this codec on snapshot data; fixed
	// values keep benches deterministic.
	cb.rates = &core.Rates{CPR: 1.2e9, DPR: 3e9, CPT: 7e9, HPR: 5e9}
	return cb
}

// sparseSnapshot mirrors the harness's RTM-like snapshot generator.
func sparseSnapshot(n, rank, nRanks int) []float32 {
	out := make([]float32, n)
	w := n / 4
	if lim := 3 * n / (2 * nRanks); lim > 0 && w > lim {
		w = lim
	}
	if w < 64 {
		w = 64
	}
	if w > n {
		w = n
	}
	start := (rank * 2654435761) % (n - w + 1)
	if start < 0 {
		start += n - w + 1
	}
	for i := 0; i < w; i++ {
		out[start+i] = float32(1000 * float64(i%180) / 180)
	}
	return out
}

// benchFlavors maps the collective benchmarks' kernel names to flavors.
var benchFlavors = map[string]core.Flavor{"mpi": core.FlavorPlain, "ccoll": core.FlavorCColl, "hz": core.FlavorHZ}

func (cb *collectiveBench) run(b *testing.B, kernel string, mode core.Mode) float64 {
	b.Helper()
	b.ReportAllocs()
	c := core.New(core.Options{ErrorBound: cb.eb, Mode: mode, Rates: cb.rates})
	cfg := cluster.Config{Ranks: cb.nodes, BandwidthBytes: 0.4e9}
	var last, lastWall float64
	for i := 0; i < b.N; i++ {
		res, err := cluster.Run(cfg, func(r *cluster.Rank) error {
			var err error
			flavor, ok := benchFlavors[strings.TrimPrefix(kernel, "rs-")]
			switch {
			case kernel == "hz-naive":
				_, _, err = c.AllreduceHZNaive(r, cb.data[r.ID])
			case !ok:
				b.Fatalf("unknown kernel %s", kernel)
			case strings.HasPrefix(kernel, "rs-"):
				_, _, err = c.ReduceScatter(r, flavor, core.AlgoRing, cb.data[r.ID])
			default:
				_, _, err = c.Allreduce(r, flavor, core.AlgoRing, cb.data[r.ID])
			}
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res.Time
		lastWall = res.WallSeconds
	}
	b.ReportMetric(last*1e6, "virtual-us")
	b.ReportMetric(lastWall*1e3, "wall-ms")
	return last
}

// BenchmarkAllreduceTraceOverhead quantifies what execution tracing costs:
// the same 8-rank hZCCL Allreduce runs untraced and traced, interleaved
// within one timed loop so machine drift hits both sides equally, and the
// relative wall-time difference is reported as trace-overhead-pct.
// scripts/bench.sh gates it at 5%. Tracing costs a fixed ≈ 0.15–0.25 ms per
// 8-rank Allreduce (events per message, not per byte); the message is 1 MiB
// per rank so the op stays near the ≈ 7 ms the 5% budget was set against —
// it was 512 KiB until the SIMD block codec halved that op's time.
func BenchmarkAllreduceTraceOverhead(b *testing.B) {
	cb := newCollectiveBench(b, 8, 1<<18)
	c := core.New(core.Options{ErrorBound: cb.eb, Mode: core.SingleThread, Rates: cb.rates})
	cfg := cluster.Config{Ranks: cb.nodes, BandwidthBytes: 0.4e9}
	body := func(r *cluster.Rank) error {
		_, _, err := c.Allreduce(r, core.FlavorHZ, core.AlgoRing, cb.data[r.ID])
		return err
	}
	run := func(traced bool) float64 {
		var res *cluster.Result
		var err error
		if traced {
			cl, _, terr := cluster.NewTraced(cfg)
			if terr != nil {
				b.Fatal(terr)
			}
			res, err = cl.Run(body)
		} else {
			res, err = cluster.Run(cfg, body)
		}
		if err != nil {
			b.Fatal(err)
		}
		return res.WallSeconds
	}
	run(false) // warm pools once so neither side pays first-run setup
	run(true)
	b.ResetTimer()
	untraced := make([]float64, 0, b.N)
	traced := make([]float64, 0, b.N)
	for i := 0; i < b.N; i++ {
		untraced = append(untraced, run(false))
		traced = append(traced, run(true))
	}
	b.StopTimer()
	// Medians, not means: a single GC pause or scheduler preemption in one
	// ~4ms iteration would otherwise dominate the comparison.
	medU, medT := median(untraced), median(traced)
	b.ReportMetric(medU*1e3, "untraced-wall-ms")
	b.ReportMetric(medT*1e3, "traced-wall-ms")
	if medU > 0 {
		b.ReportMetric((medT-medU)/medU*100, "trace-overhead-pct")
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// BenchmarkFig2Breakdown reproduces the C-Coll runtime breakdown.
func BenchmarkFig2Breakdown(b *testing.B) {
	b.ReportAllocs()
	cb := newCollectiveBench(b, 8, 1<<17)
	c := core.New(core.Options{ErrorBound: cb.eb, Rates: cb.rates})
	cfg := cluster.Config{Ranks: cb.nodes, BandwidthBytes: 0.4e9}
	var doc, mpi float64
	for i := 0; i < b.N; i++ {
		res, err := cluster.Run(cfg, func(r *cluster.Rank) error {
			_, _, err := c.Allreduce(r, core.FlavorCColl, core.AlgoRing, cb.data[r.ID])
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
		fr := res.BreakdownFractions()
		doc = fr[cluster.CatCPR] + fr[cluster.CatDPR] + fr[cluster.CatCPT]
		mpi = fr[cluster.CatMPI]
	}
	b.ReportMetric(doc, "frac-doc")
	b.ReportMetric(mpi, "frac-mpi")
}

// BenchmarkFig7ReduceScatter and BenchmarkFig8Allreduce compare hZCCL with
// C-Coll (Figures 7 and 8).
func BenchmarkFig7ReduceScatter(b *testing.B) {
	cb := newCollectiveBench(b, 8, 1<<17)
	for _, k := range []string{"rs-ccoll", "rs-hz"} {
		b.Run(k, func(b *testing.B) { cb.run(b, k, core.SingleThread) })
	}
}

func BenchmarkFig8Allreduce(b *testing.B) {
	cb := newCollectiveBench(b, 8, 1<<17)
	for _, k := range []string{"ccoll", "hz"} {
		b.Run(k, func(b *testing.B) { cb.run(b, k, core.SingleThread) })
	}
}

// BenchmarkFig9 and BenchmarkFig11 sweep message sizes for all kernels.
func BenchmarkFig9ReduceScatterSizes(b *testing.B) {
	for _, n := range []int{1 << 15, 1 << 17} {
		cb := newCollectiveBench(b, 8, n)
		for _, k := range []string{"rs-mpi", "rs-ccoll", "rs-hz"} {
			b.Run(fmt.Sprintf("%dKB/%s", 4*n/1024, k), func(b *testing.B) {
				cb.run(b, k, core.SingleThread)
			})
		}
	}
}

func BenchmarkFig11AllreduceSizes(b *testing.B) {
	for _, n := range []int{1 << 15, 1 << 17} {
		cb := newCollectiveBench(b, 8, n)
		for _, k := range []string{"mpi", "ccoll", "hz"} {
			b.Run(fmt.Sprintf("%dKB/%s", 4*n/1024, k), func(b *testing.B) {
				cb.run(b, k, core.SingleThread)
			})
		}
	}
}

// BenchmarkFig10 and BenchmarkFig12 sweep node counts.
func BenchmarkFig10ReduceScatterNodes(b *testing.B) {
	for _, nodes := range []int{4, 16, 64} {
		cb := newCollectiveBench(b, nodes, 1<<16)
		for _, k := range []string{"rs-mpi", "rs-hz"} {
			b.Run(fmt.Sprintf("n%d/%s", nodes, k), func(b *testing.B) {
				cb.run(b, k, core.MultiThread)
			})
		}
	}
}

func BenchmarkFig12AllreduceNodes(b *testing.B) {
	for _, nodes := range []int{4, 16, 64} {
		cb := newCollectiveBench(b, nodes, 1<<16)
		for _, k := range []string{"mpi", "hz"} {
			b.Run(fmt.Sprintf("n%d/%s", nodes, k), func(b *testing.B) {
				cb.run(b, k, core.MultiThread)
			})
		}
	}
}

// BenchmarkTable7Stacking reproduces the image-stacking Allreduce.
func BenchmarkTable7Stacking(b *testing.B) {
	const nodes, side = 8, 256
	scene := imagestack.Scene(side, side, 42)
	exps := make([][]float32, nodes)
	for r := range exps {
		exps[r] = imagestack.Exposure(scene, r, 0.002).Pix
	}
	eb := metrics.AbsBound(1e-4, exps[0])
	rates := &core.Rates{CPR: 1.2e9, DPR: 3e9, CPT: 7e9, HPR: 5e9}
	for _, kernel := range []string{"mpi", "ccoll", "hz"} {
		b.Run(kernel, func(b *testing.B) {
			b.ReportAllocs()
			c := core.New(core.Options{ErrorBound: eb, Rates: rates})
			cfg := cluster.Config{Ranks: nodes, BandwidthBytes: 0.4e9}
			for i := 0; i < b.N; i++ {
				_, err := cluster.Run(cfg, func(r *cluster.Rank) error {
					_, _, err := c.Allreduce(r, benchFlavors[kernel], core.AlgoRing, exps[r.ID])
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation benches (design choices called out in DESIGN.md §6)
// ---------------------------------------------------------------------------

// BenchmarkAblationDynamicVsStatic quantifies the dynamic pipeline
// heuristic against the always-decode static baseline.
func BenchmarkAblationDynamicVsStatic(b *testing.B) {
	x, y := benchPair(b, "SimSet2") // constant-block heavy: dynamic should win big
	eb := metrics.AbsBound(1e-3, x)
	p := fzlight.Params{ErrorBound: eb}
	cx, _ := fzlight.Compress(x, p)
	cy, _ := fzlight.Compress(y, p)
	b.Run("dynamic", func(b *testing.B) {
		b.SetBytes(int64(4 * len(x)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := hzdyn.Add(cx, cy); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("static", func(b *testing.B) {
		b.SetBytes(int64(4 * len(x)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hzdyn.StaticAdd(cx, cy); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationEncoding compares the byte-plane + residual-bit-shifting
// fixed-length encoding against cuSZp's bit-shuffle on one block stream.
func BenchmarkAblationEncoding(b *testing.B) {
	const n = 1 << 16
	mags := make([]uint32, n)
	for i := range mags {
		mags[i] = uint32(i*2654435761) & 0x1FFF // 13-bit magnitudes
	}
	const c = 13
	b.Run("bitshift", func(b *testing.B) {
		dst := make([]byte, bitio.PlaneBytes(n, c)+bitio.RemainderBytes(n, c))
		b.SetBytes(int64(4 * n))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			off := bitio.PackPlanes(dst, mags, c/8)
			bitio.PackRemainder(dst[off:], mags, 8*(c/8), c%8)
		}
	})
	b.Run("bitshuffle", func(b *testing.B) {
		dst := make([]byte, c*((n+7)/8))
		b.SetBytes(int64(4 * n))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bitio.BitShuffle(dst, mags, c)
		}
	})
}

// BenchmarkAblationFusedSum compares the fused pipeline-④ kernel against
// separate decode + add + encode calls.
func BenchmarkAblationFusedSum(b *testing.B) {
	x, y := benchPair(b, "CESM-ATM") // pipeline-④ heavy
	eb := metrics.AbsBound(1e-3, x)
	p := fzlight.Params{ErrorBound: eb}
	cx, _ := fzlight.Compress(x, p)
	cy, _ := fzlight.Compress(y, p)
	b.Run("fused", func(b *testing.B) {
		b.SetBytes(int64(4 * len(x)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := hzdyn.Add(cx, cy); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationAllreduceFusion quantifies the Allreduce co-design:
// fused (no RS-final decompress, no AG compress) versus the naive staging.
func BenchmarkAblationAllreduceFusion(b *testing.B) {
	cb := newCollectiveBench(b, 8, 1<<17)
	for _, k := range []string{"hz", "hz-naive"} {
		b.Run(k, func(b *testing.B) { cb.run(b, k, core.SingleThread) })
	}
}

// BenchmarkAblationOutlierScheme contrasts the per-chunk outlier of
// fZ-light with ompSZp's per-block outlier on constant data, where the
// metadata overhead dominates compressed size.
func BenchmarkAblationOutlierScheme(b *testing.B) {
	data := make([]float32, benchLen)
	for i := range data {
		data[i] = 3.5
	}
	fc, err := fzlight.Compress(data, fzlight.Params{ErrorBound: 1e-3})
	if err != nil {
		b.Fatal(err)
	}
	oc, err := ompszp.Compress(data, ompszp.Params{ErrorBound: 1e-3})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(metrics.Ratio(4*len(data), len(fc)), "ratio-fz")
	b.ReportMetric(metrics.Ratio(4*len(data), len(oc)), "ratio-omp")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fzlight.Compress(data, fzlight.Params{ErrorBound: 1e-3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationThreadChunking measures the chunked-parallel compression
// path at several thread counts (structure cost on a single core).
func BenchmarkAblationThreadChunking(b *testing.B) {
	data := benchField(b, "SimSet2")
	eb := metrics.AbsBound(1e-3, data)
	for _, threads := range []int{1, 4, 18} {
		b.Run(fmt.Sprintf("threads%d", threads), func(b *testing.B) {
			b.SetBytes(int64(4 * len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fzlight.Compress(data, fzlight.Params{ErrorBound: eb, Threads: threads}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPredictors compares the 1D delta, 2D Lorenzo and 3D
// Lorenzo predictors on volumetric data: compressed size (ratio metric)
// and throughput.
func BenchmarkAblationPredictors(b *testing.B) {
	d, h, w := 32, 128, 128
	data := make([]float32, d*h*w)
	for z := 0; z < d; z++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				data[(z*h+y)*w+x] = float32(100*math.Sin(float64(y)*0.2)*math.Cos(float64(x)*0.15) +
					0.5*float64(z) + 0.3*float64(y))
			}
		}
	}
	eb := 1e-3
	raw := 4 * len(data)
	variants := []struct {
		name string
		f    func() ([]byte, error)
	}{
		{"1d-delta", func() ([]byte, error) { return fzlight.Compress(data, fzlight.Params{ErrorBound: eb}) }},
		{"2d-lorenzo", func() ([]byte, error) { return fzlight.Compress2D(data, d*h, w, fzlight.Params{ErrorBound: eb}) }},
		{"3d-lorenzo", func() ([]byte, error) { return fzlight.Compress3D(data, d, h, w, fzlight.Params{ErrorBound: eb}) }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(int64(raw))
			b.ReportAllocs()
			var size int
			for i := 0; i < b.N; i++ {
				comp, err := v.f()
				if err != nil {
					b.Fatal(err)
				}
				size = len(comp)
			}
			b.ReportMetric(metrics.Ratio(raw, size), "ratio")
		})
	}
}

// BenchmarkAblationSegmentation quantifies the C-Coll DOC/wire overlap:
// the same allreduce with 1, 4 and 16 segments per round.
func BenchmarkAblationSegmentation(b *testing.B) {
	const nodes, n = 8, 1 << 17
	data := make([][]float32, nodes)
	for r := range data {
		d := make([]float32, n)
		for i := range d {
			d[i] = float32(math.Sin(float64(i)*0.01 + float64(r)))
		}
		data[r] = d
	}
	rates := &core.Rates{CPR: 1e9, DPR: 2e9, CPT: 8e9, HPR: 8e9}
	for _, segs := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("segments%d", segs), func(b *testing.B) {
			b.ReportAllocs()
			c := core.New(core.Options{ErrorBound: 1e-3, Rates: rates, Segments: segs})
			cfg := cluster.Config{Ranks: nodes, BandwidthBytes: 0.3e9}
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := cluster.Run(cfg, func(r *cluster.Rank) error {
					_, err := c.AllreduceCCollSegmented(r, data[r.ID])
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res.Time
			}
			b.ReportMetric(last*1e6, "virtual-us")
		})
	}
}

// ---------------------------------------------------------------------------
// Steady-state (zero-allocation) hot-path benches
// ---------------------------------------------------------------------------

// BenchmarkSteadyStateAddInto measures the in-place homomorphic add the
// ring collectives run every step: caller-provided destination, pooled
// scratch. allocs/op must be 0 — scripts/bench.sh gates on it.
func BenchmarkSteadyStateAddInto(b *testing.B) {
	x, y := benchPair(b, "SimSet2")
	eb := metrics.AbsBound(1e-3, x)
	if e2 := metrics.AbsBound(1e-3, y); e2 > eb {
		eb = e2
	}
	p := fzlight.Params{ErrorBound: eb}
	cx, err := fzlight.Compress(x, p)
	if err != nil {
		b.Fatal(err)
	}
	cy, err := fzlight.Compress(y, p)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, hzdyn.AddBound(len(cx), len(cy)))
	// Warm the scratch pools so the timed loop sees steady state (the
	// first calls also pay one-time sync.Pool chain-node allocations).
	for i := 0; i < 4; i++ {
		if _, _, err := hzdyn.AddInto(dst, cx, cy); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(4 * len(x)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := hzdyn.AddInto(dst, cx, cy); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadyStateCompressInto measures the compressor writing into a
// caller-provided CompressBound buffer, as the collectives do per block.
func BenchmarkSteadyStateCompressInto(b *testing.B) {
	data := benchField(b, "SimSet2")
	eb := metrics.AbsBound(1e-3, data)
	p := fzlight.Params{ErrorBound: eb}
	dst := make([]byte, fzlight.CompressBound(len(data), p))
	for i := 0; i < 4; i++ {
		if _, err := fzlight.CompressInto(dst, data, p); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(4 * len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fzlight.CompressInto(dst, data, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadyStateDecompressInto measures the decompressor writing
// into a caller-provided slice, as the collectives do per block.
// allocs/op must be 0 — scripts/bench.sh gates on it.
func BenchmarkSteadyStateDecompressInto(b *testing.B) {
	data := benchField(b, "SimSet2")
	comp, err := fzlight.Compress(data, fzlight.Params{ErrorBound: metrics.AbsBound(1e-3, data)})
	if err != nil {
		b.Fatal(err)
	}
	out := make([]float32, len(data))
	for i := 0; i < 4; i++ {
		if err := fzlight.DecompressInto(comp, out); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(4 * len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fzlight.DecompressInto(comp, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadyStateOmpCompressInto is the zero-allocation twin of
// Fig6's omp-compress: CompressInto with a caller-provided CompressBound
// buffer and warm scratch pools. allocs/op must be 0 — scripts/bench.sh
// gates on it.
func BenchmarkSteadyStateOmpCompressInto(b *testing.B) {
	data := benchField(b, "SimSet2")
	op := ompszp.Params{ErrorBound: metrics.AbsBound(1e-3, data)}
	dst := make([]byte, ompszp.CompressBound(len(data), op))
	for i := 0; i < 4; i++ {
		if _, err := ompszp.CompressInto(dst, data, op); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(4 * len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ompszp.CompressInto(dst, data, op); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadyStateOmpDecompressInto is the zero-allocation twin of
// Fig6's omp-decompress: pre-parsed header, caller-provided output.
func BenchmarkSteadyStateOmpDecompressInto(b *testing.B) {
	data := benchField(b, "SimSet2")
	op := ompszp.Params{ErrorBound: metrics.AbsBound(1e-3, data)}
	oc, err := ompszp.Compress(data, op)
	if err != nil {
		b.Fatal(err)
	}
	oh, err := ompszp.ParseHeader(oc)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]float32, len(data))
	for i := 0; i < 4; i++ {
		if err := ompszp.DecompressInto(out, oc, oh, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(4 * len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ompszp.DecompressInto(out, oc, oh, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadyStateSzxCompressInto measures the SZx baseline's
// caller-buffer compression path. allocs/op must be 0.
func BenchmarkSteadyStateSzxCompressInto(b *testing.B) {
	data := benchField(b, "SimSet2")
	sp := szx.Params{ErrorBound: metrics.AbsBound(1e-3, data)}
	dst := make([]byte, szx.CompressBound(len(data), sp.BlockSize))
	for i := 0; i < 4; i++ {
		if _, err := szx.CompressInto(dst, data, sp); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(4 * len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := szx.CompressInto(dst, data, sp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadyStateSzxDecompressInto measures the SZx baseline's
// caller-buffer decompression path. allocs/op must be 0.
func BenchmarkSteadyStateSzxDecompressInto(b *testing.B) {
	data := benchField(b, "SimSet2")
	sp := szx.Params{ErrorBound: metrics.AbsBound(1e-3, data)}
	sc, err := szx.Compress(data, sp)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]float32, len(data))
	for i := 0; i < 4; i++ {
		if err := szx.DecompressInto(out, sc); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(4 * len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := szx.DecompressInto(out, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCPRP2P reproduces the paper's §III-A baseline ladder:
// per-message compression (CPR-P2P) vs the C-Coll co-design vs hZCCL.
func BenchmarkAblationCPRP2P(b *testing.B) {
	cb := newCollectiveBench(b, 8, 1<<17)
	kernels := []struct {
		name string
		run  func(c core.Collectives, r *cluster.Rank, data []float32) error
	}{
		{"cpr-p2p", func(c core.Collectives, r *cluster.Rank, data []float32) error {
			_, err := c.AllreduceCPRP2P(r, data)
			return err
		}},
		{"ccoll", func(c core.Collectives, r *cluster.Rank, data []float32) error {
			_, _, err := c.Allreduce(r, core.FlavorCColl, core.AlgoRing, data)
			return err
		}},
		{"hzccl", func(c core.Collectives, r *cluster.Rank, data []float32) error {
			_, _, err := c.Allreduce(r, core.FlavorHZ, core.AlgoRing, data)
			return err
		}},
	}
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			c := core.New(core.Options{ErrorBound: cb.eb, Rates: cb.rates})
			cfg := cluster.Config{Ranks: cb.nodes, BandwidthBytes: 0.4e9}
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := cluster.Run(cfg, func(r *cluster.Rank) error {
					return k.run(c, r, cb.data[r.ID])
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res.Time
			}
			b.ReportMetric(last*1e6, "virtual-us")
		})
	}
}
