package hzccl_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"hzccl"
	"hzccl/internal/costmodel"
)

// Paper-scale virtual-time scaling sweep (the shape of the paper's Fig. 9):
// every algorithm × backend combination runs at each world size with
// modeled compute charging (CollectiveOptions.Rates), so 512-rank worlds
// complete in seconds of wall time while virtual times follow the (α, β)
// machine model.
//
// Correctness is checked the strongest way available: the sweep data
// lives on the dyadic grid (every value a multiple of 2·eb with eb = 0.25,
// all partial sums far below 2²⁴), where fZ-light's quantizer is exactly
// lossless and float32 addition is exact. On that grid every algorithm,
// every backend and the float64 oracle agree *bitwise*, so any schedule
// bug — a misrouted block, a double-add, an off-by-one fold — fails the
// test outright instead of hiding inside an error-bound tolerance.
//
// Environment knobs (used by scripts/bench.sh):
//
//	SCALING_WORLDS  comma-separated world sizes (default "8,64")
//	SCALING_OUT     path to write the Fig.-9-style JSON curve (optional)

const (
	sweepEB    = 0.25
	sweepElems = 4096
	// The sweep's fabric is ClusterConfig's default one, spelled out so
	// checkAutoChoices prices the α and β the runs were given.
	sweepLatency   = 1500 * time.Nanosecond
	sweepBandwidth = 12.5e9
)

// sweepTopology returns the paper-shaped node grouping for a world size.
func sweepTopology(world int) *hzccl.Topology {
	switch world {
	case 8:
		return hzccl.UniformTopology(2, 4)
	case 64:
		return hzccl.UniformTopology(8, 8)
	case 128:
		return hzccl.UniformTopology(8, 16)
	case 512:
		return hzccl.UniformTopology(16, 32)
	}
	return nil // flat
}

// dyadicField returns rank-distinct data on the 0.5 grid, |v| ≤ 8.
func dyadicField(rank, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = 0.5 * float32((rank*31+i*7)%33-16)
	}
	return out
}

// dyadicOracle computes the float64 reference sum; on the dyadic grid the
// float32 downcast is exact.
func dyadicOracle(world, n int) []float32 {
	sum := make([]float64, n)
	for r := 0; r < world; r++ {
		for i, v := range dyadicField(r, n) {
			sum[i] += float64(v)
		}
	}
	out := make([]float32, n)
	for i, v := range sum {
		out[i] = float32(v)
	}
	return out
}

func sweepWorlds(t *testing.T) []int {
	spec := os.Getenv("SCALING_WORLDS")
	if spec == "" {
		spec = "8,64"
	}
	var out []int
	for _, p := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			t.Fatalf("bad SCALING_WORLDS entry %q", p)
		}
		out = append(out, v)
	}
	return out
}

type scalingPoint struct {
	World     int     `json:"world"`
	Topology  string  `json:"topology"`
	Backend   string  `json:"backend"`
	Algorithm string  `json:"algorithm"`
	Seconds   float64 `json:"seconds"`
	Speedup   float64 `json:"speedupVsMPI"`
}

func TestScalingSweep(t *testing.T) {
	worlds := sweepWorlds(t)
	rates := hzccl.DefaultAutoRates
	backends := []hzccl.Backend{hzccl.BackendMPI, hzccl.BackendCColl, hzccl.BackendHZCCL}
	algos := []hzccl.Algorithm{
		hzccl.AlgoRing, hzccl.AlgoRecursiveDoubling,
		hzccl.AlgoRabenseifner, hzccl.AlgoHierarchical, hzccl.AlgoAuto,
	}
	var points []scalingPoint

	for _, world := range worlds {
		topo := sweepTopology(world)
		oracle := dyadicOracle(world, sweepElems)
		// Virtual completion time of the plain ring, the speedup baseline.
		var mpiRing float64

		for _, b := range backends {
			for _, algo := range algos {
				opt := hzccl.CollectiveOptions{
					ErrorBound: sweepEB,
					Algorithm:  algo,
					Rates:      &rates,
				}
				outs := make([][]float32, world)
				res, err := hzccl.RunCluster(hzccl.ClusterConfig{Ranks: world, Latency: sweepLatency, BandwidthBytes: sweepBandwidth, Topology: topo},
					func(r *hzccl.Rank) error {
						out, err := r.Allreduce(dyadicField(r.ID(), sweepElems), b, opt)
						outs[r.ID()] = out
						return err
					})
				if err != nil {
					t.Fatalf("world=%d %v/%v: %v", world, b, algo, err)
				}

				// Bit-identity against the float64 oracle, every rank.
				for rk, out := range outs {
					if len(out) != sweepElems {
						t.Fatalf("world=%d %v/%v rank %d: %d elems", world, b, algo, rk, len(out))
					}
					for i := range out {
						if math.Float32bits(out[i]) != math.Float32bits(oracle[i]) {
							t.Fatalf("world=%d %v/%v rank %d elem %d: got %v want %v (not bit-identical)",
								world, b, algo, rk, i, out[i], oracle[i])
						}
					}
				}

				if algo == hzccl.AlgoAuto {
					checkAutoChoices(t, res, world, b, topo, rates)
				}

				if algo == hzccl.AlgoRing && b == hzccl.BackendMPI {
					mpiRing = res.Seconds
				}
				sp := 0.0
				if res.Seconds > 0 && mpiRing > 0 {
					sp = mpiRing / res.Seconds
				}
				points = append(points, scalingPoint{
					World: world, Topology: topo.String(),
					Backend: b.String(), Algorithm: algo.String(),
					Seconds: res.Seconds, Speedup: sp,
				})
			}
		}
	}

	if out := os.Getenv("SCALING_OUT"); out != "" {
		writeScalingJSON(t, out, worlds, points)
	}
}

// checkAutoChoices checks AlgoAuto in modeled mode (Rates set): every rank
// resolved the same schedule, that schedule is the first argmin of the
// (α, β) model over the fixed ones, and ModeledSeconds is its cost exactly
// with the per-message overhead at 0 — the virtual clock charges α alone,
// so the pick must too, which keeps BENCH_scaling.json's auto rows put.
func checkAutoChoices(t *testing.T, res *hzccl.RunResult, world int, b hzccl.Backend, topo *hzccl.Topology, rates hzccl.ModelRates) {
	t.Helper()
	if len(res.AlgoChoices) != world {
		t.Fatalf("world=%d %v auto: %d choices, want %d", world, b, len(res.AlgoChoices), world)
	}
	first := res.AlgoChoices[0]
	for _, ch := range res.AlgoChoices {
		if !ch.Auto || ch.Algorithm != first.Algorithm || ch.ModeledSeconds != first.ModeledSeconds {
			t.Fatalf("world=%d %v auto: ranks disagree (%+v vs %+v)", world, b, ch, first)
		}
	}

	cm := costmodel.Rates{Rates: rates, Ratio: 4, Alpha: sweepLatency.Seconds(), Beta: sweepBandwidth}
	shape := costmodel.FlatTopo(world)
	if topo != nil {
		shape = costmodel.Topo{Nodes: topo.Nodes(), MaxNode: topo.MaxNodeSize()}
	}
	best, bestCost := hzccl.Algorithm(-1), math.Inf(1)
	for _, a := range fixedAlgos {
		if c := cm.AllreduceAlgo(b, a, world, 4*sweepElems, shape); c < bestCost {
			best, bestCost = a, c
		}
	}
	if first.Algorithm != best || first.ModeledSeconds != bestCost {
		t.Fatalf("world=%d %v auto: picked %v at %g s; the model without overhead picks %v at %g s",
			world, b, first.Algorithm, first.ModeledSeconds, best, bestCost)
	}
}

func writeScalingJSON(t *testing.T, path string, worlds []int, points []scalingPoint) {
	t.Helper()
	doc := struct {
		Worlds []int          `json:"worlds"`
		Elems  int            `json:"elems"`
		EB     float64        `json:"errorBound"`
		Points []scalingPoint `json:"points"`
	}{Worlds: worlds, Elems: sweepElems, EB: sweepEB, Points: points}
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("SCALING_OUT: %v", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatalf("SCALING_OUT: %v", err)
	}
	fmt.Printf("scaling curve written to %s (%d points)\n", path, len(points))
}

// TestScalingSweepDeterministic reruns one sweep cell and checks bitwise
// reproducibility of results and choices.
func TestScalingSweepDeterministic(t *testing.T) {
	run := func() ([][]float32, []hzccl.AlgoChoice) {
		rates := hzccl.DefaultAutoRates
		outs := make([][]float32, 8)
		res, err := hzccl.RunCluster(hzccl.ClusterConfig{Ranks: 8, Topology: sweepTopology(8)},
			func(r *hzccl.Rank) error {
				out, err := r.Allreduce(dyadicField(r.ID(), sweepElems), hzccl.BackendHZCCL,
					hzccl.CollectiveOptions{ErrorBound: sweepEB, Algorithm: hzccl.AlgoAuto, Rates: &rates})
				outs[r.ID()] = out
				return err
			})
		if err != nil {
			t.Fatal(err)
		}
		return outs, res.AlgoChoices
	}
	o1, c1 := run()
	o2, c2 := run()
	for rk := range o1 {
		for i := range o1[rk] {
			if math.Float32bits(o1[rk][i]) != math.Float32bits(o2[rk][i]) {
				t.Fatalf("rank %d elem %d differs across runs", rk, i)
			}
		}
	}
	if len(c1) != len(c2) {
		t.Fatalf("choice counts differ: %d vs %d", len(c1), len(c2))
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("choice %d differs: %+v vs %+v", i, c1[i], c2[i])
		}
	}
}
