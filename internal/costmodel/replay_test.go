package costmodel

import (
	"math"
	"reflect"
	"testing"

	"hzccl/internal/cluster"
	"hzccl/internal/core"
	"hzccl/internal/telemetry"
)

func algoTestRates() Rates {
	return Rates{
		Rates: core.Rates{CPR: 1e9, DPR: 2e9, CPT: 8e9, HPR: 6e9}, Ratio: 4,
		Alpha: 10e-6, Beta: 1.25e9,
	}
}

// TestRingReplayMatchesClosedForms pins the paper's §III-C ring equations
// to the replayed ring. Every rate, α, β and block size is a power of two,
// so both sides are exact and the relation is stated without a tolerance:
//
//   - MPI: the replay is the closed form.
//   - hZCCL: the replay is the closed form less min((N−1)·m/CPR, link):
//     the N−1 compressions after the first overlap the first transfer.
//   - C-Coll: reduce-scatter is the closed form; allreduce adds one m/DPR,
//     for the rank that finished a block decodes its canonical container
//     too (DESIGN §13).
func TestRingReplayMatchesClosedForms(t *testing.T) {
	r := Rates{
		Rates: core.Rates{CPR: 0x1p30, DPR: 0x1p31, CPT: 0x1p33, HPR: 0x1p32}, Ratio: 4,
		Alpha: 0x1p-17, Beta: 0x1p30,
	}
	const data = 1 << 20
	for _, n := range []int{2, 4, 8} {
		m := float64(data / n)
		overlap := math.Min(float64(n-1)*m/r.CPR, r.link(HZCCL, m))
		cases := []struct {
			b              Backend
			rsDiff, arDiff float64 // replay − closed form
		}{
			{Plain, 0, 0},
			{CColl, 0, m / r.DPR},
			{HZCCL, -overlap, -overlap},
		}
		for _, c := range cases {
			if got, want := r.price("reduce_scatter", c.b, core.AlgoRing, n, data, nil), r.ReduceScatter(c.b, n, data)+c.rsDiff; got != want {
				t.Errorf("%v n=%d reduce-scatter: replay %g, closed form %+g = %g", c.b, n, got, c.rsDiff, want)
			}
			if got, want := r.price("allreduce", c.b, core.AlgoRing, n, data, nil), r.Allreduce(c.b, n, data)+c.arDiff; got != want {
				t.Errorf("%v n=%d allreduce: replay %g, closed form %+g = %g", c.b, n, got, c.arDiff, want)
			}
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
						rs := r.price("reduce_scatter", b, a, n, bytes, topo.topology(n))
						if !(ar > 0) || math.IsInf(ar, 0) || !(rs > 0) || math.IsInf(rs, 0) {
							t.Fatalf("%v/%v n=%d topo=%+v bytes=%g: ar=%g rs=%g", b, a, n, topo, bytes, ar, rs)
						}
					}
				}
			}
		}
	}
	if !math.IsNaN(r.AllreduceAlgo(Plain, core.AlgoAuto, 8, 4096, FlatTopo(8))) {
		t.Error("AlgoAuto should cost NaN (resolve with Choose)")
	}
}

// TestTopoTopology checks the grouping a Topo shape is priced on.
func TestTopoTopology(t *testing.T) {
	for _, c := range []struct {
		world int
		topo  Topo
		want  string
	}{
		{8, FlatTopo(8), "flat"},
		{8, Topo{Nodes: 2, MaxNode: 4}, "2x4"},
		{5, Topo{Nodes: 2, MaxNode: 3}, "2,3"},
		{7, Topo{Nodes: 3, MaxNode: 3}, "2,2,3"},
		{4, Topo{Nodes: 1, MaxNode: 4}, "flat"},
	} {
		if got := c.topo.topology(c.world).String(); got != c.want {
			t.Errorf("%+v over %d ranks: %s, want %s", c.topo, c.world, got, c.want)
		}
	}
}

// TestCrossover checks the expected regimes: recursive doubling wins the
// latency-bound small-message corner, the bandwidth-optimal schedules win
// large messages.
func TestCrossover(t *testing.T) {
	r := algoTestRates()
	if a, _ := r.Choose("allreduce", Plain, 64, 1024, nil); a != core.AlgoRecursiveDoubling {
		t.Errorf("small message chose %v, want rd", a)
	}
	if a, _ := r.Choose("allreduce", Plain, 64, 1<<26, nil); a == core.AlgoRecursiveDoubling {
		t.Errorf("large message chose rd; ring/rabenseifner should win")
	}
}

func TestChooseDeterministicAndOptimal(t *testing.T) {
	r := algoTestRates()
	shapes := []struct {
		b     Backend
		n     int
		bytes float64
		topo  *cluster.Topology
	}{
		{Plain, 8, 4096, nil},
		{CColl, 64, 1 << 20, cluster.UniformTopology(8, 8)},
		{HZCCL, 128, 1 << 22, cluster.UniformTopology(8, 16)},
		{HZCCL, 512, 1 << 24, cluster.UniformTopology(16, 32)},
		{Plain, 1, 4096, nil},
	}
	for _, s := range shapes {
		for _, op := range []string{"allreduce", "reduce_scatter"} {
			a1, t1 := r.Choose(op, s.b, s.n, s.bytes, s.topo)
			a2, t2 := r.Choose(op, s.b, s.n, s.bytes, s.topo)
			if a1 != a2 || t1 != t2 {
				t.Fatalf("%s %+v: non-deterministic choice (%v,%g) vs (%v,%g)", op, s, a1, t1, a2, t2)
			}
			// The choice must be no worse than every fixed algorithm.
			for _, a := range core.FixedAlgorithms() {
				if c := r.price(op, s.b, a, s.n, s.bytes, s.topo); !math.IsNaN(c) && c < t1 {
					t.Errorf("%s %+v: chose %v at %g but %v costs %g", op, s, a1, t1, a, c)
				}
			}
		}
	}
}

// TestPricingInvisible holds a replay to touching nothing outside itself:
// pricing a shape no one priced before, from inside a running rank, leaves
// every telemetry counter and histogram, the flight recorder and the
// rank's clock and breakdown as they were.
func TestPricingInvisible(t *testing.T) {
	r := algoTestRates()
	r.Alpha = 13e-6 // a shape of its own: nothing is memoised yet
	_, err := cluster.Run(cluster.Config{Ranks: 1}, func(rk *cluster.Rank) error {
		rk.Elapse(cluster.CatOther, 1e-3)
		now, bd := rk.Now(), rk.Breakdown()
		snap, flight := telemetry.Capture(), telemetry.Flight().Len()
		for _, b := range []Backend{Plain, CColl, HZCCL} {
			for _, op := range []string{"allreduce", "reduce_scatter"} {
				if _, cost := r.Choose(op, b, 4, 1<<16, cluster.UniformTopology(2, 2)); !(cost > 0) {
					t.Errorf("%v %v: price %g", op, b, cost)
				}
			}
		}
		if after := telemetry.Capture(); !reflect.DeepEqual(after, snap) {
			t.Errorf("pricing moved telemetry: %v", after.Delta(snap))
		}
		if got := telemetry.Flight().Len(); got != flight {
			t.Errorf("pricing recorded %d flight events", got-flight)
		}
		if rk.Now() != now || !reflect.DeepEqual(rk.Breakdown(), bd) {
			t.Errorf("pricing moved the caller's clock: %g → %g, %v → %v", now, rk.Now(), bd, rk.Breakdown())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMemoBounded feeds the price table more distinct message sizes than it
// holds, as a long-lived daemon serving ever new sizes would.
func TestMemoBounded(t *testing.T) {
	r := algoTestRates()
	r.Alpha = 17e-6
	for i := range memoCap + 50 {
		r.AllreduceAlgo(Plain, core.AlgoRing, 2, float64(4*(i+1)), FlatTopo(2))
	}
	memo.Lock()
	n := len(memo.m)
	memo.Unlock()
	if n > memoCap {
		t.Fatalf("price table holds %d entries, cap %d", n, memoCap)
	}
}

var pickSink core.Algorithm

// BenchmarkPickMemoised is an AlgoAuto pick whose four prices are already
// in the table: hZCCL allreduce, 4 ranks of 1 MiB on 2x2.
func BenchmarkPickMemoised(b *testing.B) {
	r, topo := algoTestRates(), cluster.UniformTopology(2, 2)
	r.Choose("allreduce", HZCCL, 4, 1<<20, topo)
	b.ResetTimer()
	for range b.N {
		pickSink, _ = r.Choose("allreduce", HZCCL, 4, 1<<20, topo)
	}
}

// BenchmarkPickFirst is the same pick on an empty table: four replays.
func BenchmarkPickFirst(b *testing.B) {
	r, topo := algoTestRates(), cluster.UniformTopology(2, 2)
	for range b.N {
		b.StopTimer()
		memo.Lock()
		clear(memo.m)
		memo.Unlock()
		b.StartTimer()
		pickSink, _ = r.Choose("allreduce", HZCCL, 4, 1<<20, topo)
	}
}
