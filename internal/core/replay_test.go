package core

import (
	"runtime"
	"testing"

	"hzccl/internal/cluster"
)

// TestPriceHoldsOneVector holds a replay to its memory contract: however
// many ranks it prices, its buffers are one rank's input — the zero arena —
// and the rest is per-message and per-block bookkeeping, which does not
// grow with the message. So doubling the message from 4 to 8 MiB may add
// one 4 MiB vector to what a 64-rank replay allocates; a buffer per rank
// would add 256 MiB.
func TestPriceHoldsOneVector(t *testing.T) {
	const world, elems = 64, 1 << 20
	rates := Rates{CPR: 1e9, DPR: 2e9, CPT: 8e9, HPR: 6e9}
	topo := cluster.UniformTopology(8, 8)
	allocated := func(op string, f Flavor, a Algorithm, elems int) uint64 {
		var before, after runtime.MemStats
		runtime.GC() // two collections empty the arena pool: this replay allocates its own
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := Price(op, f, a, world, topo, elems, rates, 4, 10e-6, 1.25e9); err != nil {
			t.Fatalf("%s %v/%v: %v", op, f, a, err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, f := range Flavors() {
		for _, a := range FixedAlgorithms() {
			for _, op := range []string{"allreduce", "reduce_scatter"} {
				small, large := allocated(op, f, a, elems), allocated(op, f, a, 2*elems)
				if grew := int64(large) - int64(small); grew > 4*elems+1<<20 {
					t.Errorf("%s %v/%v on %d ranks: %d → %d values allocated %d → %d bytes (+%d), want at most one more vector",
						op, f, a, world, elems, 2*elems, small, large, grew)
				}
			}
		}
	}
}
