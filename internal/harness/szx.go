package harness

import (
	"fmt"
	"io"

	"hzccl/internal/datasets"
	"hzccl/internal/fzlight"
	"hzccl/internal/metrics"
	"hzccl/internal/szx"
)

func init() {
	register(Experiment{
		ID:    "szx-quality",
		Title: "§III-B1 compressor choice: SZx constant-block vs fZ-light quantization",
		Run:   runSZxQuality,
	})
}

// runSZxQuality quantifies the argument of paper §III-B1: SZx is fast but
// its constant-block design degrades reconstruction quality. At equal
// error bounds we compare ratio, NRMSE, throughput and — the artifact the
// NRMSE alone hides — the lag-1 error autocorrelation: quantization noise
// decorrelates, staircase artifacts do not.
func runSZxQuality(w io.Writer, opt Options) error {
	opt = opt.WithDefaults()
	fmt.Fprintln(w, "equal absolute bounds; ErrAC = lag-1 error autocorrelation (staircase indicator)")
	fmt.Fprintln(w)
	t := NewTable("Dataset", "REL",
		"SZx Ratio", "SZx NRMSE", "SZx ErrAC", "SZx Compr GB/s",
		"fZ Ratio", "fZ NRMSE", "fZ ErrAC", "fZ Compr GB/s")
	for _, name := range datasets.Names() {
		data, err := datasets.Field(name, 0, opt.Len)
		if err != nil {
			return err
		}
		raw := 4 * len(data)
		for _, rel := range []float64{1e-2, 1e-3} {
			eb := metrics.AbsBound(rel, data)

			sc, err := szx.Compress(data, szx.Params{ErrorBound: eb})
			if err != nil {
				return err
			}
			sd, err := szx.Decompress(sc)
			if err != nil {
				return err
			}
			tS, err := bestOf(1, func() error {
				_, err := szx.Compress(data, szx.Params{ErrorBound: eb})
				return err
			})
			if err != nil {
				return err
			}
			ss := metrics.Compare(data, sd)

			fc, err := fzlight.Compress(data, fzlight.Params{ErrorBound: eb})
			if err != nil {
				return err
			}
			fd, err := fzlight.Decompress(fc)
			if err != nil {
				return err
			}
			tF, err := bestOf(1, func() error {
				_, err := fzlight.Compress(data, fzlight.Params{ErrorBound: eb})
				return err
			})
			if err != nil {
				return err
			}
			fs := metrics.Compare(data, fd)

			t.Row(name, E(rel),
				F(metrics.Ratio(raw, len(sc))), E(ss.NRMSE), F(metrics.ErrAutocorr(data, sd)),
				F(metrics.GBps(raw, tS.Seconds())),
				F(metrics.Ratio(raw, len(fc))), E(fs.NRMSE), F(metrics.ErrAutocorr(data, fd)),
				F(metrics.GBps(raw, tF.Seconds())))
		}
	}
	t.Fprint(w)
	return nil
}
