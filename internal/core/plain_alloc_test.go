package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"hzccl/internal/cluster"
)

// TestPlainAllreduceAllocatesOnlyItsResult guards the plain data path's
// allocation contract on the in-process fabric: in steady state a plain
// Allreduce allocates its result slice and little else — no per-step
// conversion slices, no staging or accumulator outside bufpool — whatever
// the world size or schedule. Before the path reduced straight from wire
// bytes it allocated ≈5.5× its input.
func TestPlainAllreduceAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; byte counts are meaningless")
	}
	// n is small on purpose: bufpool is a sync.Pool, whose per-P caches let
	// a migrated goroutine miss now and then, and one stray 4–16 KiB refill
	// spread over ops×world rank-ops stays far inside the budget — while any
	// per-step conversion slice (≥ a block per step) would still exceed it.
	const n, warm, ops = 1 << 12, 4, 16
	const budget = 4*n + 8<<10 // per rank per op: the result plus closures, headers, control-plane state
	// A collection between ops would empty bufpool (sync.Pool) and charge
	// the refill to the op; the contract is about the steady state.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	c := New(Options{})
	schedules := []struct {
		name string
		run  func(*cluster.Rank, []float32) ([]float32, error)
	}{
		{"ring", c.AllreducePlain},
		{"rd", c.AllreducePlainRD},
		{"rabenseifner", c.AllreducePlainRecursive},
		{"hierarchical", c.AllreduceHierPlain},
	}
	for _, world := range []int{2, 4, 5, 8} {
		topo, err := cluster.ParseTopology(identityTopologies[world])
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range schedules {
			var before, after runtime.MemStats
			runClusterTopo(t, world, topo, func(r *cluster.Rank) error {
				data := wideField(r.ID, n)
				// Rank 0 samples the allocator between two barriers, so
				// no rank is inside an op while it reads.
				sample := func(m *runtime.MemStats) error {
					if err := r.Barrier(); err != nil {
						return err
					}
					if r.ID == 0 {
						runtime.ReadMemStats(m)
					}
					return r.Barrier()
				}
				for i := 0; i < warm+ops; i++ {
					if i == warm {
						if err := sample(&before); err != nil {
							return err
						}
					}
					if _, err := s.run(r, data); err != nil {
						return err
					}
				}
				return sample(&after)
			})
			perRankOp := float64(after.TotalAlloc-before.TotalAlloc) / float64(ops*world)
			t.Logf("world %d %-12s %8.0f B per rank per op (input %d B)", world, s.name, perRankOp, 4*n)
			if perRankOp > budget {
				t.Errorf("world %d %s: %.0f bytes allocated per rank per Allreduce, budget %d (4·len(data) + 8 KiB)",
					world, s.name, perRankOp, budget)
			}
		}
	}
}
