package harness

import (
	"fmt"
	"io"
	"math"

	"hzccl/internal/cluster"
	"hzccl/internal/core"
	"hzccl/internal/metrics"
	"hzccl/internal/telemetry"
)

// Kernel numbering follows the paper's artifact:
//
//	0: original MPI, 1: C-Coll multi-thread, 2: hZCCL multi-thread,
//	3: C-Coll single-thread, 4: hZCCL single-thread.
const (
	KernelMPI     = 0
	KernelCCollMT = 1
	KernelHZMT    = 2
	KernelCCollST = 3
	KernelHZST    = 4
)

// KernelName returns the artifact name of a kernel index.
func KernelName(k int) string {
	switch k {
	case KernelMPI:
		return "MPI"
	case KernelCCollMT:
		return "C-Coll (MT)"
	case KernelHZMT:
		return "hZCCL (MT)"
	case KernelCCollST:
		return "C-Coll (ST)"
	case KernelHZST:
		return "hZCCL (ST)"
	}
	return fmt.Sprintf("kernel%d", k)
}

// kernelFlavor splits a kernel index into its threading mode and flavor.
func kernelFlavor(k int) (core.Mode, core.Flavor) {
	switch k {
	case KernelCCollMT:
		return core.MultiThread, core.FlavorCColl
	case KernelHZMT:
		return core.MultiThread, core.FlavorHZ
	case KernelCCollST:
		return core.SingleThread, core.FlavorCColl
	case KernelHZST:
		return core.SingleThread, core.FlavorHZ
	}
	return core.SingleThread, core.FlavorPlain
}

// Kernels lists all kernel indices in artifact order.
var Kernels = []int{KernelMPI, KernelCCollMT, KernelHZMT, KernelCCollST, KernelHZST}

func init() {
	register(Experiment{ID: "fig2", Title: "C-Coll Allreduce runtime breakdown (DOC vs MPI vs OTHER)", Run: runFig2})
	register(Experiment{ID: "fig7", Title: "Reduce_scatter: hZCCL vs C-Coll on RTM datasets", Run: runFig7})
	register(Experiment{ID: "fig8", Title: "Allreduce: hZCCL vs C-Coll on RTM datasets", Run: runFig8})
	register(Experiment{ID: "fig9", Title: "Reduce_scatter vs message size (5 kernels)", Run: runFig9})
	register(Experiment{ID: "fig10", Title: "Reduce_scatter vs node count (5 kernels)", Run: runFig10})
	register(Experiment{ID: "fig11", Title: "Allreduce vs message size (5 kernels)", Run: runFig11})
	register(Experiment{ID: "fig12", Title: "Allreduce vs node count (5 kernels)", Run: runFig12})
}

func (o Options) clusterConfig(nodes int) cluster.Config {
	return cluster.Config{
		Ranks:          nodes,
		Latency:        o.Latency,
		BandwidthBytes: o.Bandwidth,
	}
}

func (o Options) coreOptions(mode core.Mode, eb float64, rates *core.Rates) core.Options {
	return core.Options{
		ErrorBound: eb,
		Mode:       mode,
		MTThreads:  o.MTThreads,
		Rates:      rates,
	}
}

// fieldKind selects the RTM-like profile of per-rank collective inputs.
type fieldKind int

const (
	// sparseRTM models early reverse-time-migration snapshots: a narrow
	// wavefront shell over an exactly-zero background (the paper's
	// Simulation Setting 1).
	sparseRTM fieldKind = iota
	// smoothRTM models late snapshots: long-wavelength swells everywhere
	// plus the wavefront shell (Setting 2).
	smoothRTM
)

// collectiveField builds rank r's contribution to a collective: snapshot r
// of an RTM-like time series. Successive snapshots put the wavefront shell
// at different depths, so the non-constant regions of ring-reduce operand
// pairs rarely coincide — reproducing the pipeline profile the paper
// reports for RTM reductions (Table V: ≈0% pipeline ④).
func collectiveField(kind fieldKind, n, rank, nRanks int) []float32 {
	out := make([]float32, n)
	if n == 0 {
		return out
	}
	// Shell width: ~40% of the domain for small clusters, shrinking toward
	// ~1.5/N for large ones so shells stay near-disjoint.
	w := int(0.40 * float64(n))
	if lim := 3 * n / (2 * nRanks); lim > 0 && w > lim {
		w = lim
	}
	if w < 64 {
		w = 64
	}
	if w > n {
		w = n
	}
	// Golden-ratio stagger spreads shells evenly for any rank count.
	frac := math.Mod(float64(rank)*0.6180339887498949, 1)
	start := int(frac * float64(n-w+1))
	if start > n-w {
		start = n - w
	}

	if kind == smoothRTM {
		// Smooth background common to all snapshots (locally constant at
		// the experiment bounds), individually scaled per rank.
		amp := 100 * (1 + 0.003*float64(rank%16))
		k1 := 2 * math.Pi / float64(n)
		for i := range out {
			out[i] = float32(amp * math.Sin(k1*float64(i)))
		}
	}
	carrier := 2 * math.Pi / 180
	for i := 0; i < w; i++ {
		t := float64(i)
		env := math.Sin(math.Pi * t / float64(w))
		out[start+i] += float32(1000 * env * math.Sin(carrier*t+float64(rank)))
	}
	return out
}

// rtmSnapshots returns rank 0's snapshot and the next few, up to three (the
// ring's first folds): the fields calibrate measures the collectives on.
func rtmSnapshots(kind fieldKind, n, nRanks int) [][]float32 {
	snaps := make([][]float32, 1+min(max(nRanks-1, 1), 3))
	for k := range snaps {
		snaps[k] = collectiveField(kind, n, k, nRanks)
	}
	return snaps
}

// collectiveOp distinguishes the two measured collectives.
type collectiveOp int

const (
	opReduceScatter collectiveOp = iota
	opAllreduce
)

// KernelRun is the outcome of one collective: the virtual-time result plus
// the run's telemetry delta (counters, spans and pipeline histograms).
type KernelRun struct {
	*cluster.Result
	// Telemetry holds the growth of the process-global telemetry registry
	// over the run.
	Telemetry telemetry.Snapshot
}

// runKernel executes one (kernel, op) on `nodes` ranks, each contributing
// its own snapshot, and returns the virtual-time result with the run's
// telemetry delta. Compute is charged at rates, so one run is the answer.
func runKernel(opt Options, op collectiveOp, kernel, nodes int, kind fieldKind, n int, eb float64, rates *core.Rates) (*KernelRun, error) {
	mode, flavor := kernelFlavor(kernel)
	c := core.New(opt.coreOptions(mode, eb, rates))
	before := telemetry.Capture()
	res, err := cluster.Run(opt.clusterConfig(nodes), func(r *cluster.Rank) (err error) {
		data := collectiveField(kind, n, r.ID, nodes)
		if op == opReduceScatter {
			_, _, err = c.ReduceScatter(r, flavor, core.AlgoRing, data)
		} else {
			_, _, err = c.Allreduce(r, flavor, core.AlgoRing, data)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return &KernelRun{Result: res, Telemetry: telemetry.Capture().Delta(before)}, nil
}

// collectiveBound derives the absolute error bound for a collective
// experiment from rank 0's snapshot, as the paper derives its default
// bound from the RTM data.
func collectiveBound(opt Options, kind fieldKind, n, nodes int) float64 {
	return metrics.AbsBound(opt.RelBound, collectiveField(kind, n, 0, nodes))
}

func runFig2(w io.Writer, opt Options) error {
	opt = opt.WithDefaults()
	n := opt.MessageBytes / 4
	eb := collectiveBound(opt, sparseRTM, n, opt.Nodes)
	rates, err := calibrate(eb, rtmSnapshots(sparseRTM, n, opt.Nodes)...)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "C-Coll ring Allreduce on %d nodes, %s per rank, eb=%.3g\n", opt.Nodes, Bytes(opt.MessageBytes), eb)
	fmt.Fprintf(w, "paper reference — ST: 78.18/21.56/0.26, MT: 52.26/47.02/0.72\n\n")
	t := NewTable("Mode", "DPR+CPT+CPR", "MPI", "OTHER")
	for _, kernel := range []int{KernelCCollST, KernelCCollMT} {
		res, err := runKernel(opt, opAllreduce, kernel, opt.Nodes, sparseRTM, n, eb, rates)
		if err != nil {
			return err
		}
		fr := res.BreakdownFractions()
		doc := fr[cluster.CatCPR] + fr[cluster.CatDPR] + fr[cluster.CatCPT]
		t.Row(KernelName(kernel), Pct(doc), Pct(fr[cluster.CatMPI]), Pct(fr[cluster.CatOther]))
	}
	t.Fprint(w)
	return nil
}

// runVsCColl produces the Figure 7/8 comparison: hZCCL vs C-Coll on the
// two RTM-like profiles, single- and multi-thread, across message sizes.
func runVsCColl(w io.Writer, opt Options, op collectiveOp) error {
	opt = opt.WithDefaults()
	t := NewTable("Dataset", "Size", "C-Coll ST us", "hZCCL ST us", "ST speedup", "C-Coll MT us", "hZCCL MT us", "MT speedup")
	for _, ds := range []struct {
		name string
		kind fieldKind
	}{{"SimSet1", sparseRTM}, {"SimSet2", smoothRTM}} {
		for _, size := range opt.SweepBytes {
			n := size / 4
			eb := collectiveBound(opt, ds.kind, n, opt.Nodes)
			rates, err := calibrate(eb, rtmSnapshots(ds.kind, n, opt.Nodes)...)
			if err != nil {
				return err
			}
			times := map[int]float64{}
			for _, kernel := range []int{KernelCCollST, KernelHZST, KernelCCollMT, KernelHZMT} {
				res, err := runKernel(opt, op, kernel, opt.Nodes, ds.kind, n, eb, rates)
				if err != nil {
					return err
				}
				times[kernel] = res.Time
			}
			t.Row(ds.name, Bytes(size),
				F(times[KernelCCollST]*1e6), F(times[KernelHZST]*1e6),
				F(times[KernelCCollST]/times[KernelHZST])+"x",
				F(times[KernelCCollMT]*1e6), F(times[KernelHZMT]*1e6),
				F(times[KernelCCollMT]/times[KernelHZMT])+"x")
		}
	}
	t.Fprint(w)
	return nil
}

func runFig7(w io.Writer, opt Options) error { return runVsCColl(w, opt, opReduceScatter) }
func runFig8(w io.Writer, opt Options) error { return runVsCColl(w, opt, opAllreduce) }

func fiveKernelHeader(xlabel string) *Table {
	return NewTable(xlabel, "MPI us", "C-Coll MT us", "hZCCL MT us", "C-Coll ST us", "hZCCL ST us",
		"MT spd C-Coll", "MT spd hZCCL", "ST spd C-Coll", "ST spd hZCCL")
}

func fiveKernelRow(t *Table, label string, times map[int]float64) {
	t.Row(label,
		F(times[KernelMPI]*1e6),
		F(times[KernelCCollMT]*1e6), F(times[KernelHZMT]*1e6),
		F(times[KernelCCollST]*1e6), F(times[KernelHZST]*1e6),
		F(times[KernelMPI]/times[KernelCCollMT])+"x",
		F(times[KernelMPI]/times[KernelHZMT])+"x",
		F(times[KernelMPI]/times[KernelCCollST])+"x",
		F(times[KernelMPI]/times[KernelHZST])+"x")
}

// runSizeSweep produces Figures 9/11: all five kernels across message
// sizes at a fixed node count, with speedups over the MPI kernel.
func runSizeSweep(w io.Writer, opt Options, op collectiveOp) error {
	opt = opt.WithDefaults()
	fmt.Fprintf(w, "%d nodes, RTM-like snapshots, REL bound %.0e, α=%v, effective β=%.2g GB/s\n\n",
		opt.Nodes, opt.RelBound, opt.Latency, opt.Bandwidth/1e9)
	t := fiveKernelHeader("Size")
	for _, size := range opt.SweepBytes {
		n := size / 4
		eb := collectiveBound(opt, sparseRTM, n, opt.Nodes)
		rates, err := calibrate(eb, rtmSnapshots(sparseRTM, n, opt.Nodes)...)
		if err != nil {
			return err
		}
		times := map[int]float64{}
		for _, kernel := range Kernels {
			res, err := runKernel(opt, op, kernel, opt.Nodes, sparseRTM, n, eb, rates)
			if err != nil {
				return err
			}
			times[kernel] = res.Time
		}
		fiveKernelRow(t, Bytes(size), times)
	}
	t.Fprint(w)
	return nil
}

func runFig9(w io.Writer, opt Options) error  { return runSizeSweep(w, opt, opReduceScatter) }
func runFig11(w io.Writer, opt Options) error { return runSizeSweep(w, opt, opAllreduce) }

// runNodeSweep produces Figures 10/12: all five kernels across node counts
// at a fixed per-rank message size.
func runNodeSweep(w io.Writer, opt Options, op collectiveOp) error {
	opt = opt.WithDefaults()
	n := opt.MessageBytes / 4
	fmt.Fprintf(w, "%s per rank, RTM-like snapshots, REL bound %.0e, α=%v, effective β=%.2g GB/s\n\n",
		Bytes(opt.MessageBytes), opt.RelBound, opt.Latency, opt.Bandwidth/1e9)
	t := fiveKernelHeader("Nodes")
	for nodes := 2; nodes <= opt.MaxNodes; nodes *= 2 {
		eb := collectiveBound(opt, sparseRTM, n, nodes)
		rates, err := calibrate(eb, rtmSnapshots(sparseRTM, n, nodes)...)
		if err != nil {
			return err
		}
		times := map[int]float64{}
		for _, kernel := range Kernels {
			res, err := runKernel(opt, op, kernel, nodes, sparseRTM, n, eb, rates)
			if err != nil {
				return err
			}
			times[kernel] = res.Time
		}
		fiveKernelRow(t, fmt.Sprint(nodes), times)
	}
	t.Fprint(w)
	return nil
}

func runFig10(w io.Writer, opt Options) error { return runNodeSweep(w, opt, opReduceScatter) }
func runFig12(w io.Writer, opt Options) error { return runNodeSweep(w, opt, opAllreduce) }
