package core

import (
	"math"
	"runtime"
	"testing"

	"hzccl/internal/bufpool"
	"hzccl/internal/cluster"
)

// TestPoisonedPoolChangesNoBit holds every schedule to writing each element
// of a result or a float temporary before anything reads it: results now
// come from bufpool when it holds memory (comm.vector), so a schedule that
// left an element unwritten would return whatever the pool's last owner
// left there. Every flavor × fixed schedule × world, for both collectives,
// runs once on a drained float32 pool and once on a pool whose classes hold
// NaN-patterned buffers, and the two runs must agree bit for bit on every
// rank.
func TestPoisonedPoolChangesNoBit(t *testing.T) {
	const n = 1000
	c := New(Options{ErrorBound: testEB})
	worlds := []struct {
		name  string
		ranks int
		topo  string // "" is flat
	}{{"1", 1, ""}, {"4", 4, ""}, {"5", 5, ""}, {"2x2", 4, "2x2"}, {"2,3", 5, "2,3"}}
	for _, w := range worlds {
		var topo *cluster.Topology
		if w.topo != "" {
			var err error
			if topo, err = cluster.ParseTopology(w.topo); err != nil {
				t.Fatal(err)
			}
		}
		for _, f := range Flavors() {
			for _, a := range FixedAlgorithms() {
				for _, scatter := range []bool{false, true} {
					run := func() [][]float32 {
						if scatter {
							return reduceScatterAll(t, c, f, a, w.ranks, topo, n)
						}
						return allreduceAll(t, c, f, a, w.ranks, topo, n)
					}
					drainFloatPool()
					want := run()
					poisonFloatPool(2 * n)
					got := run()
					for r := range want {
						if i := firstBitDiff(got[r], want[r]); i >= 0 {
							t.Errorf("%s/%v world %s rank %d (reduce-scatter %v): element %d differs on a poisoned pool",
								flavorName(f), a, w.name, r, scatter, i)
						}
					}
				}
			}
		}
	}
	drainFloatPool()
}

// drainFloatPool empties bufpool: a sync.Pool drops what it holds over two
// collections.
func drainFloatPool() {
	runtime.GC()
	runtime.GC()
}

// poisonFloatPool puts NaN-patterned buffers into every float32 class a
// vector of up to maxLen values draws from, several per class, enough for
// every rank of a world to draw from one at once.
func poisonFloatPool(maxLen int) {
	for k := 0; 1<<k <= 2*maxLen; k++ {
		for range 8 {
			b := make([]float32, 1<<k)
			for i := range b {
				b[i] = math.Float32frombits(0x7fc00000 | uint32(i)*2654435761&0x3fffff)
			}
			bufpool.PutFloat32s(b)
		}
	}
}

// firstBitDiff returns the first index where a and b differ in length or
// bits, or -1.
func firstBitDiff(a, b []float32) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}
