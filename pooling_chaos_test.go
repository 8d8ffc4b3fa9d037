package hzccl_test

// Race-detector stress for the pooled-buffer hot paths (run via `make
// chaos` and scripts/check.sh, both of which pass -race). The collectives
// recycle their send buffers through internal/bufpool immediately after
// Send — and every payload they receive once it is consumed — which is only
// sound because the transport copies on send and the retransmit window
// keeps its own pristine copies. If any of those copies
// were ever elided, recycled buffers would be scribbled over while
// retransmissions of their previous contents are still in flight, and the
// float64 oracle below (or the race detector) would catch it.

import (
	"fmt"
	"math"
	"testing"
	"time"

	"hzccl"
	"hzccl/internal/telemetry"
)

// TestChaosPooledBuffersNoAliasing runs back-to-back allreduces on every
// backend × schedule under a fabric that drops, corrupts, duplicates and
// delays messages, with reliable delivery on (NACK/replay recovers in
// place) and off (the strict receive fails the attempt and a one-rung
// DegradePolicy retries it in a fresh epoch). Back-to-back collectives make
// every iteration reuse buffers the previous one released — while
// retransmissions of those very buffers' earlier contents are still
// pending — so any aliasing between the pool and the transport corrupts a
// visible result. Every receiver recycles what it consumed, the plain
// flavor included, which makes the in-process fabric's FaultDuplicate the
// sharpest case: both deliveries share one payload buffer, so the dedup
// (reliable) and ErrMessageDuplicate (strict) paths must neither read nor
// recycle a buffer the first delivery already handed back to the pool.
//
// The plain flavor runs the same matrix a second time on job sessions of a
// loopback TCP mesh, the fabric that does not copy: there every payload is
// written from the sender's own memory — for this flavor a view of the
// result vector being reduced — so a fault injector that mutated in place,
// or a transport that recycled what it was lent, would corrupt a result
// rather than a copy.
func TestChaosPooledBuffersNoAliasing(t *testing.T) {
	const nRanks, n, iters = 4, 4096, 3
	fields := make([][]float32, nRanks)
	exact := make([]float64, n)
	for r := range fields {
		fields[r] = sineField(n, 700+int64(r))
		for i, v := range fields[r] {
			exact[i] += float64(v)
		}
	}
	hits0 := telemetry.C("bufpool.hits").Value()
	retx0 := telemetry.C("cluster.retransmits").Value()
	dedup0 := telemetry.C("cluster.dedups").Value()

	var faults hzccl.ChaosCounts
	seed := int64(170)
	legs := []struct {
		backend hzccl.Backend
		mesh    *loopbackMesh // nil: the in-process fabric
	}{{hzccl.BackendMPI, nil}, {hzccl.BackendCColl, nil}, {hzccl.BackendHZCCL, nil}, {hzccl.BackendMPI, newLoopbackMesh(t, nRanks)}}
	for _, leg := range legs {
		backend := leg.backend
		// Plain sums are exact up to float32 rounding; the compressed
		// flavors add their quantisation hops.
		tol := 0.03
		if backend == hzccl.BackendMPI {
			tol = 1e-4
		}
		for _, algo := range []hzccl.Algorithm{hzccl.AlgoRing, hzccl.AlgoRecursiveDoubling, hzccl.AlgoRabenseifner, hzccl.AlgoHierarchical} {
			for _, reliable := range []bool{true, false} {
				seed++
				spec := hzccl.ChaosSpec{Seed: seed, DropRate: 0.05, CorruptRate: 0.05, DuplicateRate: 0.05, DelayRate: 0.05, MaxDelaySeconds: 20e-6}
				opt := hzccl.CollectiveOptions{ErrorBound: 1e-3, Algorithm: algo}
				if !reliable {
					// Every destructive fault costs a whole attempt here, so
					// they are rarer; duplicates — the case under test — less so.
					spec.DropRate, spec.CorruptRate, spec.DuplicateRate = 0.004, 0.008, 0.02
					opt.Degrade = &hzccl.DegradePolicy{Ladder: []hzccl.Backend{backend}, AttemptsPerBackend: 200}
				}
				chaos := hzccl.NewChaos(spec)
				label := fmt.Sprintf("%v %v reliable=%v tcp=%v", backend, algo, reliable, leg.mesh != nil)
				outs := make([][][]float32, nRanks)
				// The hZ rooted Reduce recycles its accumulator and every
				// payload it folds the same way; it has no schedule of its
				// own, so it rides along with the ring.
				reduce := backend == hzccl.BackendHZCCL && algo == hzccl.AlgoRing
				err := leg.mesh.run(hzccl.ClusterConfig{
					Ranks:       nRanks,
					Topology:    hzccl.UniformTopology(2, 2),
					Reliable:    reliable,
					RecvTimeout: 100 * time.Millisecond,
					Fault:       chaos.Fault(),
					Corrupt:     &hzccl.CorruptPattern{Spray: true, Burst: 2},
				}, func(r *hzccl.Rank) error {
					for it := 0; it < iters; it++ {
						out, err := r.Allreduce(fields[r.ID()], backend, opt)
						if err != nil {
							return err
						}
						outs[r.ID()] = append(outs[r.ID()], out)
						if !reduce {
							continue
						}
						red, err := r.Reduce(fields[r.ID()], it%nRanks, backend, opt)
						if err != nil {
							return err
						}
						if r.ID() == it%nRanks {
							outs[r.ID()] = append(outs[r.ID()], red)
						}
					}
					// A TCP rank serves its own replay window: nobody leaves
					// while a peer may still NACK it.
					return r.Barrier()
				})
				if err != nil {
					t.Fatalf("%s under chaos: %v", label, err)
				}
				for rk, runs := range outs {
					for it, out := range runs {
						if len(out) != n {
							t.Fatalf("%s rank %d iter %d: result length %d", label, rk, it, len(out))
						}
						for i := range out {
							if d := math.Abs(float64(out[i]) - exact[i]); d > tol {
								t.Fatalf("%s rank %d iter %d: error %g at %d (recycled buffer leaked into a result)",
									label, rk, it, d, i)
							}
						}
					}
				}
				c := chaos.Counts()
				faults.Drops += c.Drops
				faults.Corrupts += c.Corrupts
				faults.Duplicates += c.Duplicates
				faults.Delays += c.Delays
			}
		}
	}
	if faults.Drops == 0 || faults.Corrupts == 0 || faults.Duplicates == 0 || faults.Delays == 0 {
		t.Fatalf("chaos left a fault class uninjected (%+v); the test proved nothing about it", faults)
	}
	if d := telemetry.C("cluster.retransmits").Value() - retx0; d < 1 {
		t.Errorf("no retransmissions in flight (delta %d); aliasing was never exercised", d)
	}
	if d := telemetry.C("cluster.dedups").Value() - dedup0; d < 1 {
		t.Errorf("no duplicate was deduplicated (delta %d); the shared-payload path was never exercised", d)
	}
	if d := telemetry.C("bufpool.hits").Value() - hits0; d < 1 {
		t.Errorf("buffer pool never recycled (hit delta %d); pooling was never exercised", d)
	}
}
