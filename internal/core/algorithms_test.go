package core

import (
	"math"
	"testing"

	"hzccl/internal/cluster"
)

func TestParseAlgorithm(t *testing.T) {
	cases := []struct {
		in   string
		want Algorithm
	}{
		{"", AlgoRing}, {"ring", AlgoRing},
		{"rd", AlgoRecursiveDoubling}, {"recursive-doubling", AlgoRecursiveDoubling},
		{"rab", AlgoRabenseifner}, {"rabenseifner", AlgoRabenseifner}, {"recursive", AlgoRabenseifner},
		{"hier", AlgoHierarchical}, {"hierarchical", AlgoHierarchical},
		{"auto", AlgoAuto},
	}
	for _, c := range cases {
		got, err := ParseAlgorithm(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseAlgorithm("bogus"); err == nil {
		t.Error("ParseAlgorithm accepted bogus name")
	}
	for _, a := range FixedAlgorithms() {
		if !a.Valid() || a == AlgoAuto {
			t.Errorf("FixedAlgorithms contains %v", a)
		}
		back, err := ParseAlgorithm(a.String())
		if err != nil || back != a {
			t.Errorf("String/Parse round trip failed for %v", a)
		}
	}
	if !AlgoAuto.Valid() || Algorithm(99).Valid() || Algorithm(-1).Valid() {
		t.Error("Valid() boundaries wrong")
	}
}

// TestRDAllreduce checks the recursive-doubling allreduce for all three
// backends across power-of-two and non-power-of-two worlds.
func TestRDAllreduce(t *testing.T) {
	const n = 1000
	c := New(Options{ErrorBound: testEB})
	for _, nRanks := range []int{1, 2, 3, 4, 5, 6, 7, 8, 12, 16} {
		exact := exactSum(nRanks, n)
		for _, f := range Flavors() {
			for rk, out := range allreduceAll(t, c, f, AlgoRecursiveDoubling, nRanks, nil, n) {
				checkNear(t, out, exact, sumBound(f, AlgoRecursiveDoubling, nRanks), flavorName(f)+" rd", nRanks, rk)
			}
		}
	}
}

func checkNear(t *testing.T, out []float32, exact []float64, bound float64, label string, nRanks, rank int) {
	t.Helper()
	if len(out) != len(exact) {
		t.Fatalf("%s ranks=%d rank %d: %d elems, want %d", label, nRanks, rank, len(out), len(exact))
	}
	for i := range out {
		if d := math.Abs(float64(out[i]) - exact[i]); d > bound {
			t.Fatalf("%s ranks=%d rank %d elem %d: err %g > %g", label, nRanks, rank, i, d, bound)
		}
	}
}

func runClusterTopo(t *testing.T, ranks int, topo *cluster.Topology, body func(r *cluster.Rank) error) {
	t.Helper()
	if _, err := cluster.Run(cluster.Config{Ranks: ranks, Topology: topo}, body); err != nil {
		t.Fatal(err)
	}
}

// TestHierAllreduce checks the two-level hierarchical allreduce and
// reduce-scatter for all backends across flat, uniform and non-uniform
// topologies.
func TestHierAllreduce(t *testing.T) {
	cases := []struct {
		ranks int
		topo  *cluster.Topology
	}{
		{1, nil},
		{4, nil}, // no topology: degenerate single node
		{8, cluster.UniformTopology(2, 4)},
		{8, cluster.UniformTopology(8, 1)}, // every rank its own node
		{8, &cluster.Topology{NodeSizes: []int{3, 5}}},
		{16, &cluster.Topology{NodeSizes: []int{3, 5, 8}}},
	}
	const n = 1000
	c := New(Options{ErrorBound: testEB})
	for _, tc := range cases {
		exact := exactSum(tc.ranks, n)
		for _, f := range Flavors() {
			bound := sumBound(f, AlgoHierarchical, tc.ranks)
			label := "hier " + flavorName(f) + " " + tc.topo.String()
			outs := allreduceAll(t, c, f, AlgoHierarchical, tc.ranks, tc.topo, n)
			blocks := reduceScatterAll(t, c, f, AlgoHierarchical, tc.ranks, tc.topo, n)
			for rk := range outs {
				checkNear(t, outs[rk], exact, bound, label, tc.ranks, rk)
				checkOwnedBlock(t, blocks[rk], exact, rk, tc.ranks, bound, label+" rs")
			}
		}
	}
}

// checkOwnedBlock verifies a reduce-scatter result against the world
// contract: rank holds block BlockOwned(rank, N) of the exact sum.
func checkOwnedBlock(t *testing.T, block []float32, exact []float64, rank, nRanks int, bound float64, label string) {
	t.Helper()
	s, e := BlockBounds(len(exact), nRanks, BlockOwned(rank, nRanks))
	if len(block) != e-s {
		t.Fatalf("%s rank %d: block len %d, want %d", label, rank, len(block), e-s)
	}
	for i := range block {
		if d := math.Abs(float64(block[i]) - exact[s+i]); d > bound {
			t.Fatalf("%s rank %d elem %d: err %g > %g", label, rank, i, d, bound)
		}
	}
}

// TestTopology exercises the topology helpers directly.
func TestTopology(t *testing.T) {
	topo, err := cluster.ParseTopology("3,5,8")
	if err != nil {
		t.Fatal(err)
	}
	if topo.Nodes() != 3 || topo.MaxNodeSize() != 8 {
		t.Fatalf("nodes=%d max=%d", topo.Nodes(), topo.MaxNodeSize())
	}
	if err := topo.Validate(16); err != nil {
		t.Fatal(err)
	}
	if err := topo.Validate(15); err == nil {
		t.Error("sum mismatch accepted")
	}
	if got := topo.NodeOf(0); got != 0 {
		t.Errorf("NodeOf(0)=%d", got)
	}
	if got := topo.NodeOf(3); got != 1 {
		t.Errorf("NodeOf(3)=%d", got)
	}
	if got := topo.NodeOf(15); got != 2 {
		t.Errorf("NodeOf(15)=%d", got)
	}
	if got := topo.Leaders(); len(got) != 3 || got[0] != 0 || got[1] != 3 || got[2] != 8 {
		t.Errorf("Leaders()=%v", got)
	}
	if got := topo.Members(1); len(got) != 5 || got[0] != 3 || got[4] != 7 {
		t.Errorf("Members(1)=%v", got)
	}
	if topo.String() != "3,5,8" {
		t.Errorf("String()=%q", topo.String())
	}

	uni, err := cluster.ParseTopology("8x4")
	if err != nil {
		t.Fatal(err)
	}
	if uni.Nodes() != 8 || uni.MaxNodeSize() != 4 || uni.String() != "8x4" {
		t.Errorf("uniform: %v %q", uni.NodeSizes, uni.String())
	}
	var nilTopo *cluster.Topology
	if nilTopo.Normalize(7).NodeSizes[0] != 7 {
		t.Error("Normalize(nil) wrong")
	}
	if nilTopo.String() != "flat" {
		t.Error("nil String() wrong")
	}
	for _, bad := range []string{"", "0x4", "4x0", "3,0,5", "x", "a,b"} {
		if _, err := cluster.ParseTopology(bad); err == nil {
			t.Errorf("ParseTopology(%q) accepted", bad)
		}
	}

	// A cluster rejects a topology that doesn't match its world size.
	if _, err := cluster.Run(cluster.Config{Ranks: 4, Topology: &cluster.Topology{NodeSizes: []int{3}}},
		func(r *cluster.Rank) error { return nil }); err == nil {
		t.Error("cluster accepted mismatched topology")
	}
}
