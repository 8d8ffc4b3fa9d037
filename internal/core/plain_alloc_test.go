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
	for _, world := range []int{2, 4, 5, 8} {
		topo, err := cluster.ParseTopology(identityTopologies[world])
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range FixedAlgorithms() {
			perRankOp := allocPerRankOp(t, world, topo, n, warm, ops, allreduceRun(c, FlavorPlain, a))
			t.Logf("world %d %-12v %8.0f B per rank per op (input %d B)", world, a, perRankOp, 4*n)
			if perRankOp > budget {
				t.Errorf("world %d %v: %.0f bytes allocated per rank per Allreduce, budget %d (4·len(data) + 8 KiB)",
					world, a, perRankOp, budget)
			}
		}
	}
}

// allreduceRun adapts one flavor × schedule Allreduce to allocPerRankOp.
func allreduceRun(c Collectives, f Flavor, a Algorithm) func(*cluster.Rank, []float32) ([]float32, error) {
	return func(r *cluster.Rank, data []float32) ([]float32, error) {
		out, _, err := c.Allreduce(r, f, a, data)
		return out, err
	}
}

// allocPerRankOp runs warm+ops back-to-back calls of run on every rank of a
// world and returns the bytes allocated per rank per call over the last ops.
func allocPerRankOp(t *testing.T, world int, topo *cluster.Topology, n, warm, ops int, run func(*cluster.Rank, []float32) ([]float32, error)) float64 {
	t.Helper()
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
			if _, err := run(r, data); err != nil {
				return err
			}
		}
		return sample(&after)
	})
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(ops*world)
}

// TestHZAllreduceAllocatesOnlyItsResult is the same guard for the
// homomorphic schedules: the compressed blocks, every reduction step's sum
// and the frames they travel in come from bufpool and go back to it, so an
// hZ Allreduce (or rooted Reduce) allocates its result slice and little
// else. Before the recursive-doubling, Rabenseifner and Reduce paths moved
// to AddInto/CompressInto they allocated a compressed vector per step.
func TestHZAllreduceAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; byte counts are meaningless")
	}
	const n, warm, ops = 1 << 12, 4, 16
	const budget = 4*n + 8<<10
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	c := New(Options{ErrorBound: 1e-3})
	schedules := []struct {
		name string
		run  func(*cluster.Rank, []float32) ([]float32, error)
	}{
		{"ring", allreduceRun(c, FlavorHZ, AlgoRing)},
		{"rd", allreduceRun(c, FlavorHZ, AlgoRecursiveDoubling)},
		{"rabenseifner", allreduceRun(c, FlavorHZ, AlgoRabenseifner)},
		{"reduce", func(r *cluster.Rank, data []float32) ([]float32, error) {
			out, _, err := c.Reduce(r, FlavorHZ, data, 0)
			return out, err
		}},
	}
	for _, world := range []int{2, 4, 5, 8} {
		for _, s := range schedules {
			perRankOp := allocPerRankOp(t, world, nil, n, warm, ops, s.run)
			t.Logf("world %d %-12s %8.0f B per rank per op (input %d B)", world, s.name, perRankOp, 4*n)
			if perRankOp > budget {
				t.Errorf("world %d %s: %.0f bytes allocated per rank per call, budget %d (4·len(data) + 8 KiB)",
					world, s.name, perRankOp, budget)
			}
		}
	}
}
