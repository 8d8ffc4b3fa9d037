// Command hzccl-compress is a file-level interface to the fZ-light
// compressor and the hZ-dynamic homomorphic reducer. Data files are raw
// little-endian float32 arrays (the SDRBench convention).
//
// Usage:
//
//	hzccl-compress -eb 1e-3 [-threads N] [-dims DxHxW] -o out.fzl in.f32   compress
//	hzccl-compress -d [-compare orig.f32] -o out.f32 in.fzl         decompress
//	hzccl-compress -info in.fzl                                     inspect
//	hzccl-compress -add -o sum.fzl a.fzl b.fzl                      homomorphic add
//
// -compare prints reconstruction quality (max abs error, RMSE, NRMSE,
// max rel error, PSNR) of the decompressed output against the original
// raw file. Range-normalized metrics of a constant original are undefined
// and print as "n/a".
//
// Any mode accepts -metrics FILE|- to dump the runtime telemetry snapshot
// (codec byte counters, chunk encode/decode spans, hzdyn pipeline
// selection) at exit: "-" writes JSON to stdout; a ".prom" file suffix
// selects the Prometheus text format.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"hzccl"
	"hzccl/internal/floatbytes"
	"hzccl/internal/metrics"
	"hzccl/internal/telemetry"
)

// parseDims parses "HxW" or "DxHxW"; empty input yields nil (1D), invalid
// input yields a slice of the wrong length so the caller reports it.
func parseDims(s string) []int {
	if s == "" {
		return nil
	}
	parts := strings.Split(strings.ToLower(s), "x")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			return []int{-1}
		}
		out = append(out, v)
	}
	return out
}

func main() {
	var (
		eb         = flag.Float64("eb", 0, "absolute error bound (compress mode)")
		threads    = flag.Int("threads", 1, "chunks in the container (the paper's one per thread); the cores are used at any count")
		dims       = flag.String("dims", "", "optional dimensions HxW or DxHxW for the Lorenzo predictors")
		decompress = flag.Bool("d", false, "decompress instead of compress")
		add        = flag.Bool("add", false, "homomorphically add two compressed files")
		info       = flag.Bool("info", false, "print stream info and exit")
		out        = flag.String("o", "", "output file (required except for -info)")
		compare    = flag.String("compare", "", "raw float32 file to compare the decompressed output against (-d mode): prints error metrics")
		metricsOut = flag.String("metrics", "", "dump the telemetry snapshot at exit: '-' = JSON to stdout, FILE = JSON, FILE.prom = Prometheus text format")
	)
	flag.Parse()
	if err := run(*eb, *threads, *dims, *decompress, *add, *info, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "hzccl-compress: %v\n", err)
		os.Exit(1)
	}
	if err := telemetry.DumpSnapshot(*metricsOut); err != nil {
		fmt.Fprintf(os.Stderr, "hzccl-compress: metrics: %v\n", err)
		os.Exit(1)
	}
}

// fmtMetric formats one quality metric, printing undefined (NaN) values —
// the range-normalized metrics of a constant original — as "n/a" instead
// of a number that could be misread as measured.
func fmtMetric(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%.6g", v)
}

func run(eb float64, threads int, dims string, decompress, add, info bool, out, compare string, args []string) error {
	switch {
	case info:
		if len(args) != 1 {
			return fmt.Errorf("-info needs exactly one compressed file")
		}
		comp, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		st, err := hzccl.Info(comp)
		if err != nil {
			return err
		}
		fmt.Printf("elements:         %d\n", st.DataLen)
		fmt.Printf("error bound:      %g\n", st.ErrorBound)
		fmt.Printf("block size:       %d\n", st.BlockSize)
		fmt.Printf("threads (chunks): %d\n", st.Threads)
		fmt.Printf("compressed bytes: %d\n", st.CompressedBytes)
		fmt.Printf("ratio:            %.2f\n", st.Ratio)
		fmt.Printf("constant blocks:  %.2f%%\n", 100*st.ConstantBlockFraction)
		return nil

	case add:
		if len(args) != 2 || out == "" {
			return fmt.Errorf("-add needs two compressed inputs and -o")
		}
		a, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		b, err := os.ReadFile(args[1])
		if err != nil {
			return err
		}
		sum, st, err := hzccl.HomomorphicAddWithStats(a, b)
		if err != nil {
			return err
		}
		if st.Blocks > 0 {
			fmt.Printf("pipelines: ①%.1f%% ②%.1f%% ③%.1f%% ④%.1f%% over %d blocks\n",
				100*float64(st.BothConstant)/float64(st.Blocks),
				100*float64(st.LeftConstant)/float64(st.Blocks),
				100*float64(st.RightConstant)/float64(st.Blocks),
				100*float64(st.BothEncoded)/float64(st.Blocks), st.Blocks)
		}
		return os.WriteFile(out, sum, 0o644)

	case decompress:
		if len(args) != 1 || out == "" {
			return fmt.Errorf("-d needs one compressed input and -o")
		}
		comp, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		vals, err := hzccl.Decompress(comp)
		if err != nil {
			return err
		}
		if compare != "" {
			raw, err := os.ReadFile(compare)
			if err != nil {
				return err
			}
			if len(raw)%4 != 0 {
				return fmt.Errorf("%s: size %d is not a multiple of 4 (raw float32 expected)", compare, len(raw))
			}
			s := metrics.Compare(floatbytes.Floats(raw), vals)
			if s.Mismatched {
				return fmt.Errorf("%s has %d values, decompressed output has %d", compare, len(raw)/4, len(vals))
			}
			fmt.Printf("max abs err: %s\n", fmtMetric(s.MaxAbs))
			fmt.Printf("rmse:        %s\n", fmtMetric(s.RMSE))
			fmt.Printf("nrmse:       %s\n", fmtMetric(s.NRMSE))
			fmt.Printf("max rel err: %s\n", fmtMetric(s.MaxRel))
			fmt.Printf("psnr:        %s\n", fmtMetric(s.PSNR))
		}
		return os.WriteFile(out, floatbytes.Bytes(vals), 0o644)

	default:
		if len(args) != 1 || out == "" {
			return fmt.Errorf("compression needs one raw float32 input and -o")
		}
		if eb <= 0 {
			return fmt.Errorf("compression needs -eb > 0")
		}
		raw, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		if len(raw)%4 != 0 {
			return fmt.Errorf("%s: size %d is not a multiple of 4 (raw float32 expected)", args[0], len(raw))
		}
		vals := floatbytes.Floats(raw)
		p := hzccl.Params{ErrorBound: eb, Threads: threads}
		var comp []byte
		switch d := parseDims(dims); len(d) {
		case 0:
			comp, err = hzccl.Compress(vals, p)
		case 2:
			comp, err = hzccl.Compress2D(vals, d[0], d[1], p)
		case 3:
			comp, err = hzccl.Compress3D(vals, d[0], d[1], d[2], p)
		default:
			return fmt.Errorf("-dims must be HxW or DxHxW, got %q", dims)
		}
		if err != nil {
			return err
		}
		fmt.Printf("%d -> %d bytes (ratio %.2f)\n", len(raw), len(comp), float64(len(raw))/float64(len(comp)))
		return os.WriteFile(out, comp, 0o644)
	}
}
