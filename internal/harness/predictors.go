package harness

import (
	"fmt"
	"io"

	"hzccl/internal/datasets"
	"hzccl/internal/fzlight"
	"hzccl/internal/metrics"
)

func init() {
	register(Experiment{
		ID:    "predictors",
		Title: "Predictor choice on dimensional data: 1D delta vs 2D/3D Lorenzo",
		Run:   runPredictors,
	})
}

// runPredictors quantifies the future-work extension: on data with real
// 2D/3D structure, the dimensional Lorenzo predictors buy substantial
// ratio over the paper's 1D delta at the same error bound — and the
// containers remain fully homomorphic.
func runPredictors(w io.Writer, opt Options) error {
	opt = opt.WithDefaults()
	// Volume sized to ~opt.Len elements.
	depth := 16
	side := 1
	for side*side*depth < opt.Len {
		side *= 2
	}
	fmt.Fprintf(w, "volumes of %dx%dx%d (%s), REL bound 1e-3\n\n", depth, side, side, Bytes(4*depth*side*side))
	t := NewTable("Dataset", "1D ratio", "2D ratio", "3D ratio", "3D/1D gain", "1D GB/s", "3D GB/s")
	for _, name := range []string{"SimSet2", "NYX", "CESM-ATM"} {
		vol, err := datasets.Field3D(name, 0, depth, side, side)
		if err != nil {
			return err
		}
		raw := 4 * len(vol)
		eb := metrics.AbsBound(1e-3, vol)
		p := fzlight.Params{ErrorBound: eb}

		c1, err := fzlight.Compress(vol, p)
		if err != nil {
			return err
		}
		c2, err := fzlight.Compress2D(vol, depth*side, side, p)
		if err != nil {
			return err
		}
		c3, err := fzlight.Compress3D(vol, depth, side, side, p)
		if err != nil {
			return err
		}
		t1, err := bestOf(1, func() error {
			_, err := fzlight.Compress(vol, p)
			return err
		})
		if err != nil {
			return err
		}
		t3, err := bestOf(1, func() error {
			_, err := fzlight.Compress3D(vol, depth, side, side, p)
			return err
		})
		if err != nil {
			return err
		}
		r1 := metrics.Ratio(raw, len(c1))
		r3 := metrics.Ratio(raw, len(c3))
		t.Row(name,
			F(r1), F(metrics.Ratio(raw, len(c2))), F(r3),
			F(r3/r1)+"x",
			F(metrics.GBps(raw, t1.Seconds())), F(metrics.GBps(raw, t3.Seconds())))
	}
	t.Fprint(w)
	return nil
}
