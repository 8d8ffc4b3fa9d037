// Command hzccl-datasets generates the synthetic application fields used
// throughout the evaluation as raw little-endian float32 files (the
// SDRBench convention), and summarizes their compression-relevant
// statistics. The files feed directly into hzccl-compress.
//
// Usage:
//
//	hzccl-datasets -list
//	hzccl-datasets -dataset NYX -field 0 -len 4194304 -o nyx0.f32
//	hzccl-datasets -dataset NYX -summary
//
// The summary's first line carries the crc32c of the generated field, so
// two builds that print the same summary generated the same bits.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hzccl/internal/datasets"
	"hzccl/internal/floatbytes"
	"hzccl/internal/fzlight"
	"hzccl/internal/metrics"
	"hzccl/internal/telemetry"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list available datasets")
		name    = flag.String("dataset", "", "dataset name")
		field   = flag.Int("field", 0, "field index")
		length  = flag.Int("len", 1<<22, "elements to generate")
		out     = flag.String("o", "", "output file (raw float32)")
		summary = flag.Bool("summary", false, "print compression statistics instead of writing a file")

		metricsOut = flag.String("metrics", "", "dump the telemetry snapshot at exit: '-' = JSON to stdout, FILE = JSON, FILE.prom = Prometheus text format")
	)
	flag.Parse()
	if err := run(os.Stdout, *list, *name, *field, *length, *out, *summary); err != nil {
		fmt.Fprintf(os.Stderr, "hzccl-datasets: %v\n", err)
		os.Exit(1)
	}
	if err := telemetry.DumpSnapshot(*metricsOut); err != nil {
		fmt.Fprintf(os.Stderr, "hzccl-datasets: metrics: %v\n", err)
		os.Exit(1)
	}
}

// run does what the flags ask, writing its text to w.
func run(w io.Writer, list bool, name string, field, length int, out string, summary bool) error {
	if list {
		fmt.Fprintf(w, "%-10s %-14s %-8s %s\n", "Name", "Domain", "Fields", "DefaultLen")
		for _, m := range datasets.Catalog {
			fmt.Fprintf(w, "%-10s %-14s %-8d %d\n", m.Name, m.Domain, m.Fields, m.DefaultLen)
		}
		return nil
	}
	if name == "" {
		return fmt.Errorf("need -dataset (or -list)")
	}
	data, err := datasets.Field(name, field, length)
	if err != nil {
		return err
	}
	if summary {
		mn, mx := metrics.MinMax(data)
		fmt.Fprintf(w, "dataset %s field %d: %d elements, range [%.4g, %.4g], crc32c %08x\n",
			name, field, length, mn, mx, floatbytes.Checksum(data))
		fmt.Fprintf(w, "%-8s  %-8s  %-10s  %s\n", "REL", "abs eb", "fZ ratio", "constant blocks")
		span := metrics.Range(data)
		for _, rel := range []float64{1e-1, 1e-2, 1e-3, 1e-4} {
			eb := rel * span
			comp, err := fzlight.Compress(data, fzlight.Params{ErrorBound: eb})
			if err != nil {
				return err
			}
			st, err := fzlight.Stats(comp)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-8.0e  %-8.3g  %-10.2f  %.1f%%\n",
				rel, eb, metrics.Ratio(4*len(data), len(comp)), 100*st.ConstantFraction())
		}
		return nil
	}
	if out == "" {
		return fmt.Errorf("need -o or -summary")
	}
	if err := os.WriteFile(out, floatbytes.Bytes(data), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s: %d float32 values (%d bytes)\n", out, length, 4*length)
	return nil
}
