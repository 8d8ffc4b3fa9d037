package costmodel

import (
	"math"
	"testing"

	"hzccl/internal/core"
)

func algoTestRates() Rates {
	return Rates{
		Rates: core.Rates{CPR: 1e9, DPR: 2e9, CPT: 8e9, HPR: 6e9}, Ratio: 4,
		Alpha: 10e-6, Beta: 1.25e9,
	}
}

func TestAllreduceAlgoRingMatchesClosedForm(t *testing.T) {
	r := algoTestRates()
	topo := FlatTopo(64)
	for _, b := range []Backend{Plain, CColl, HZCCL} {
		want := r.Allreduce(b, 64, 1<<20)
		got := r.AllreduceAlgo(b, core.AlgoRing, 64, 1<<20, topo)
		if got != want {
			t.Errorf("%v: AlgoRing %g != Allreduce %g", b, got, want)
		}
		want = r.ReduceScatter(b, 64, 1<<20)
		got = r.ReduceScatterAlgo(b, core.AlgoRing, 64, 1<<20, topo)
		if got != want {
			t.Errorf("%v: rs AlgoRing %g != ReduceScatter %g", b, got, want)
		}
	}
}

func TestAlgoCostsFiniteAndPositive(t *testing.T) {
	r := algoTestRates()
	topos := []Topo{FlatTopo(64), {Nodes: 8, MaxNode: 8}, {Nodes: 3, MaxNode: 8}}
	for _, b := range []Backend{Plain, CColl, HZCCL} {
		for _, a := range core.FixedAlgorithms() {
			for _, n := range []int{2, 3, 64, 100} {
				for _, topo := range topos {
					for _, bytes := range []float64{4096, 1 << 24} {
						ar := r.AllreduceAlgo(b, a, n, bytes, topo)
						rs := r.ReduceScatterAlgo(b, a, n, bytes, topo)
						if !(ar > 0) || math.IsInf(ar, 0) || !(rs > 0) || math.IsInf(rs, 0) {
							t.Fatalf("%v/%v n=%d topo=%+v bytes=%g: ar=%g rs=%g", b, a, n, topo, bytes, ar, rs)
						}
					}
				}
			}
		}
	}
	if !math.IsNaN(r.AllreduceAlgo(Plain, core.AlgoAuto, 8, 4096, FlatTopo(8))) {
		t.Error("AlgoAuto should cost NaN (resolve with ChooseAllreduce)")
	}
}

// TestCrossover checks the expected regimes: recursive doubling wins the
// latency-bound small-message corner, the bandwidth-optimal schedules win
// large messages.
func TestCrossover(t *testing.T) {
	r := algoTestRates()
	topo := FlatTopo(64)
	algoSmall, _ := r.ChooseAllreduce(Plain, 64, 1024, topo)
	if algoSmall != core.AlgoRecursiveDoubling {
		t.Errorf("small message chose %v, want rd", algoSmall)
	}
	algoLarge, _ := r.ChooseAllreduce(Plain, 64, 1<<26, topo)
	if algoLarge == core.AlgoRecursiveDoubling {
		t.Errorf("large message chose rd; ring/rabenseifner should win")
	}
}

func TestChooseDeterministicAndOptimal(t *testing.T) {
	r := algoTestRates()
	shapes := []struct {
		b     Backend
		n     int
		bytes float64
		topo  Topo
	}{
		{Plain, 8, 4096, FlatTopo(8)},
		{CColl, 64, 1 << 20, Topo{Nodes: 8, MaxNode: 8}},
		{HZCCL, 128, 1 << 22, Topo{Nodes: 8, MaxNode: 16}},
		{HZCCL, 512, 1 << 24, Topo{Nodes: 16, MaxNode: 32}},
		{Plain, 1, 4096, FlatTopo(1)},
	}
	for _, s := range shapes {
		a1, t1 := r.ChooseAllreduce(s.b, s.n, s.bytes, s.topo)
		a2, t2 := r.ChooseAllreduce(s.b, s.n, s.bytes, s.topo)
		if a1 != a2 || t1 != t2 {
			t.Fatalf("%+v: non-deterministic choice (%v,%g) vs (%v,%g)", s, a1, t1, a2, t2)
		}
		// The choice must be no worse than every fixed algorithm.
		for _, a := range core.FixedAlgorithms() {
			if c := r.AllreduceAlgo(s.b, a, s.n, s.bytes, s.topo); !math.IsNaN(c) && c < t1 {
				t.Errorf("%+v: chose %v at %g but %v costs %g", s, a1, t1, a, c)
			}
		}
		a1, t1 = r.ChooseReduceScatter(s.b, s.n, s.bytes, s.topo)
		for _, a := range core.FixedAlgorithms() {
			if c := r.ReduceScatterAlgo(s.b, a, s.n, s.bytes, s.topo); !math.IsNaN(c) && c < t1 {
				t.Errorf("rs %+v: chose %v at %g but %v costs %g", s, a1, t1, a, c)
			}
		}
	}
}
