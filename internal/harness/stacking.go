package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"hzccl/internal/cluster"
	"hzccl/internal/core"
	"hzccl/internal/imagestack"
	"hzccl/internal/metrics"
)

func init() {
	register(Experiment{ID: "table7", Title: "Image stacking: speedups and runtime breakdown", Run: runTable7})
	register(Experiment{ID: "fig13", Title: "Image stacking: stacked image quality and PGM output", Run: runFig13})
}

// stackNoiseSigma is the per-pixel read noise of synthetic exposures. It
// sits below the default error bound (REL 1e-4 of the ~200-unit dynamic
// range) so dark-sky blocks quantize to constants, as in the paper's RTM
// and stacking workloads.
const stackNoiseSigma = 0.002

// stackDims derives image dimensions from the option message size.
func stackDims(opt Options) (int, int) {
	// roughly square images totalling MessageBytes
	side := 1
	for side*side*4 < opt.MessageBytes {
		side *= 2
	}
	return side, side / 1
}

// runStack performs the Allreduce-based stacking with one kernel and
// returns the cluster result plus rank 0's stacked image.
func runStack(opt Options, kernel int, scene *imagestack.Image, eb float64, rates *core.Rates) (*cluster.Result, *imagestack.Image, error) {
	mode, flavor := kernelFlavor(kernel)
	c := core.New(opt.coreOptions(mode, eb, rates))
	var img *imagestack.Image
	res, err := cluster.Run(opt.clusterConfig(opt.Nodes), func(r *cluster.Rank) error {
		exp := imagestack.Exposure(scene, r.ID, stackNoiseSigma)
		stacked, _, err := c.Allreduce(r, flavor, core.AlgoRing, exp.Pix)
		if err == nil && r.ID == 0 {
			img = &imagestack.Image{W: scene.W, H: scene.H, Pix: stacked}
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return res, img, nil
}

// stackSetup builds the scene, exact stack, error bound and calibrated
// rates shared by table7 and fig13.
func stackSetup(opt Options) (*imagestack.Image, *imagestack.Image, float64, *core.Rates, error) {
	w, h := stackDims(opt)
	scene := imagestack.Scene(w, h, 42)
	exposures := make([]*imagestack.Image, opt.Nodes)
	for r := range exposures {
		exposures[r] = imagestack.Exposure(scene, r, stackNoiseSigma)
	}
	exact, err := imagestack.ExactStack(exposures)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	// The paper uses an absolute bound of 1e-4 on image data; we scale it
	// to our synthetic dynamic range via the relative bound option.
	eb := metrics.AbsBound(opt.RelBound, exposures[0].Pix)
	rates, err := calibrate(eb, exposures[0].Pix, exposures[1%len(exposures)].Pix)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	return scene, exact, eb, rates, nil
}

func runTable7(w io.Writer, opt Options) error {
	opt = opt.WithDefaults()
	scene, exact, eb, rates, err := stackSetup(opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "stacking %d exposures of %dx%d (%s each), eb=%.3g\n", opt.Nodes, scene.W, scene.H, Bytes(4*scene.W*scene.H), eb)
	fmt.Fprintf(w, "paper reference speedups — hZCCL ST 1.81x / C-Coll ST 1.45x / hZCCL MT 5.02x / C-Coll MT 3.34x\n\n")

	var tMPI float64
	t := NewTable("Solution", "Speedup", "CPR+CPT", "MPI", "Others", "PSNR", "NRMSE")
	for _, kernel := range []int{KernelMPI, KernelHZST, KernelCCollST, KernelHZMT, KernelCCollMT} {
		res, img, err := runStack(opt, kernel, scene, eb, rates)
		if err != nil {
			return err
		}
		if kernel == KernelMPI {
			tMPI = res.Time
			continue
		}
		fr := res.BreakdownFractions()
		comp := fr[cluster.CatCPR] + fr[cluster.CatDPR] + fr[cluster.CatCPT] + fr[cluster.CatHPR]
		q := imagestack.Quality(exact, img)
		t.Row(KernelName(kernel), F(tMPI/res.Time)+"x", Pct(comp), Pct(fr[cluster.CatMPI]), Pct(fr[cluster.CatOther]),
			F(q.PSNR), E(q.NRMSE))
	}
	t.Fprint(w)
	return nil
}

func runFig13(w io.Writer, opt Options) error {
	opt = opt.WithDefaults()
	scene, exact, eb, rates, err := stackSetup(opt)
	if err != nil {
		return err
	}
	_, hzImg, err := runStack(opt, KernelHZST, scene, eb, rates)
	if err != nil {
		return err
	}
	q := imagestack.Quality(exact, hzImg)
	fmt.Fprintf(w, "hZCCL-stacked %dx%d image vs exact stack: PSNR %.2f dB, NRMSE %.2e, max abs err %.3g (eb per exposure %.3g)\n",
		scene.W, scene.H, q.PSNR, q.NRMSE, q.MaxAbs, eb)
	if opt.OutDir == "" {
		fmt.Fprintln(w, "set -out <dir> to write exact.pgm and hzccl.pgm for visual comparison")
		return nil
	}
	if err := os.MkdirAll(opt.OutDir, 0o755); err != nil {
		return err
	}
	for name, img := range map[string]*imagestack.Image{"exact.pgm": exact, "hzccl.pgm": hzImg} {
		f, err := os.Create(filepath.Join(opt.OutDir, name))
		if err != nil {
			return err
		}
		if err := imagestack.WritePGM(f, img); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "wrote %s and %s\n", filepath.Join(opt.OutDir, "exact.pgm"), filepath.Join(opt.OutDir, "hzccl.pgm"))
	return nil
}
