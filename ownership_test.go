package hzccl_test

// The buffer-ownership rule seen from the collectives: the plain flavor
// sends views of its accumulator — which is the caller's result vector —
// and the TCP fabric writes a sender's bytes in place, so nothing may ever
// recycle a buffer it did not allocate, and no checksum may outlive the
// bytes it was computed over.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"hzccl"
	"hzccl/internal/bufpool"
	"hzccl/internal/floatbytes"
)

// loopbackMesh forms an n-rank TCP mesh on loopback, every rank a transport
// of this process (standing in for its own process), closed with the test.
type loopbackMesh struct {
	trs []*hzccl.TCPTransport
	job uint32
}

func newLoopbackMesh(t *testing.T, n int) *loopbackMesh {
	t.Helper()
	lns, peers := make([]net.Listener, n), make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], peers[i] = ln, ln.Addr().String()
	}
	m := &loopbackMesh{trs: make([]*hzccl.TCPTransport, n)}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range lns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m.trs[i], errs[i] = hzccl.NewTCPTransport(hzccl.TCPOptions{Rank: i, Peers: peers, Listener: lns[i], DialTimeout: 10 * time.Second})
		}(i)
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, tr := range m.trs {
			if tr != nil {
				tr.Close()
			}
		}
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d mesh: %v", i, err)
		}
	}
	return m
}

// run executes body on every rank: as the goroutines of one in-process
// RunCluster when m is nil, else as one RunCluster per rank on a fresh job
// session of the mesh — what a daemon job is. It returns the first error.
func (m *loopbackMesh) run(cfg hzccl.ClusterConfig, body func(*hzccl.Rank) error) error {
	_, err := m.results(cfg, body)
	return err
}

// results is run returning what the runs returned: one RunResult on the
// in-process fabric, one per rank (in rank order) on the mesh.
func (m *loopbackMesh) results(cfg hzccl.ClusterConfig, body func(*hzccl.Rank) error) ([]*hzccl.RunResult, error) {
	if m == nil {
		res, err := hzccl.RunCluster(cfg, body)
		return []*hzccl.RunResult{res}, err
	}
	m.job++
	res := make([]*hzccl.RunResult, len(m.trs))
	errs := make([]error, len(m.trs))
	var wg sync.WaitGroup
	for i, tr := range m.trs {
		wg.Add(1)
		go func(i int, tr *hzccl.TCPTransport) {
			defer wg.Done()
			c := cfg
			if c.Transport, errs[i] = tr.Session(m.job); errs[i] == nil {
				res[i], errs[i] = hzccl.RunCluster(c, body)
			}
		}(i, tr)
	}
	wg.Wait()
	return res, errors.Join(errs...)
}

var fixedAlgos = []hzccl.Algorithm{hzccl.AlgoRing, hzccl.AlgoRecursiveDoubling, hzccl.AlgoRabenseifner, hzccl.AlgoHierarchical}

// TestPlainResultsNeverEnterThePool tests "a view never reaches bufpool" by
// its symptom. The pool accepts foreign buffers silently, so a recycled view
// of a plain accumulator would hand a caller's result vector to the next
// Get — and whoever drew it would scribble over a result returned long ago.
// On both fabrics and worlds 4 and 5, every rank runs 64 back-to-back plain
// Allreduces (all four schedules in turn), keeps every result, and between
// them churns the pool: C-Coll and hZ collectives, and a direct draw-fill-
// return of every size class a block or vector of this size can land in. At
// the end every kept vector must still have the digest it was returned
// with, and no two may share memory.
func TestPlainResultsNeverEnterThePool(t *testing.T) {
	const n, ops = 4096, 64
	topos := map[int]string{4: "2x2", 5: "3,2"}
	for _, world := range []int{4, 5} {
		topo, err := hzccl.ParseTopology(topos[world])
		if err != nil {
			t.Fatal(err)
		}
		fields := make([][]float32, world)
		for r := range fields {
			fields[r] = sineField(n, 900+int64(r))
		}
		for _, m := range []*loopbackMesh{nil, newLoopbackMesh(t, world)} {
			fabric := "inproc"
			if m != nil {
				fabric = "tcp"
			}
			type kept struct {
				vec    []float32
				digest uint32
			}
			results := make([][]kept, world)
			err := m.run(hzccl.ClusterConfig{Ranks: world, Topology: topo, RecvTimeout: 10 * time.Second}, func(r *hzccl.Rank) error {
				for op := 0; op < ops; op++ {
					algo := fixedAlgos[op%len(fixedAlgos)]
					out, err := r.Allreduce(fields[r.ID()], hzccl.BackendMPI, hzccl.CollectiveOptions{Algorithm: algo})
					if err != nil {
						return fmt.Errorf("plain %v op %d: %w", algo, op, err)
					}
					results[r.ID()] = append(results[r.ID()], kept{out, floatbytes.Checksum(out)})
					churn := []hzccl.Backend{hzccl.BackendCColl, hzccl.BackendHZCCL}[op/len(fixedAlgos)%2]
					if _, err := r.Allreduce(fields[r.ID()], churn, hzccl.CollectiveOptions{ErrorBound: 1e-3, Algorithm: algo}); err != nil {
						return fmt.Errorf("%v %v op %d: %w", churn, algo, op, err)
					}
					for size := 4 * n / 8; size <= 4*n*2; size *= 2 {
						b := bufpool.Bytes(size)
						for i := range b {
							b[i] = 0xa5
						}
						bufpool.PutBytes(b)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s world %d: %v", fabric, world, err)
			}
			owner := map[*float32]string{}
			for rk, runs := range results {
				if len(runs) != ops {
					t.Fatalf("%s world %d rank %d kept %d results", fabric, world, rk, len(runs))
				}
				for op, k := range runs {
					who := fmt.Sprintf("rank %d op %d", rk, op)
					if got := floatbytes.Checksum(k.vec); got != k.digest {
						t.Errorf("%s world %d %s: result digest %08x became %08x after it was returned (its memory went through the pool)",
							fabric, world, who, k.digest, got)
					}
					if k.digest != results[0][op].digest {
						t.Errorf("%s world %d %s: digest %08x differs from rank 0's %08x", fabric, world, who, k.digest, results[0][op].digest)
					}
					if prev, dup := owner[&k.vec[0]]; dup {
						t.Errorf("%s world %d: %s and %s share memory", fabric, world, prev, who)
					}
					owner[&k.vec[0]] = who
				}
			}
		}
	}
}

// TestTCPBackToBackJobsNeverShipAStaleChecksum is the regression test for a
// checksum cache keyed on a buffer's address (a prototype of the forward
// path had one): a consumed payload goes back to bufpool and comes out again
// at the same address and length as a compress buffer with new contents, so
// an address-keyed reuse sends the old sum with the new bytes and a healthy
// fabric reports corruption — it showed first at a hierarchical leader
// assembling a member's block. Hierarchical and ring C-Coll and hZ jobs run
// back to back on one TCP session with strict receives: not one may fail.
func TestTCPBackToBackJobsNeverShipAStaleChecksum(t *testing.T) {
	const world, n, rounds = 4, 16384, 24
	m := newLoopbackMesh(t, world)
	fields := make([][]float32, world)
	for r := range fields {
		fields[r] = sineField(n, 40+int64(r))
	}
	err := m.run(hzccl.ClusterConfig{Ranks: world, Topology: hzccl.UniformTopology(2, 2), RecvTimeout: 10 * time.Second}, func(r *hzccl.Rank) error {
		for i := 0; i < rounds; i++ {
			backend := []hzccl.Backend{hzccl.BackendCColl, hzccl.BackendHZCCL}[i%2]
			algo := []hzccl.Algorithm{hzccl.AlgoHierarchical, hzccl.AlgoRing}[i/2%2]
			opt := hzccl.CollectiveOptions{ErrorBound: 1e-3, Algorithm: algo}
			if _, err := r.Allreduce(fields[r.ID()], backend, opt); err != nil {
				return fmt.Errorf("round %d: %v %v allreduce: %w", i, backend, algo, err)
			}
			if _, err := r.ReduceScatter(fields[r.ID()], backend, opt); err != nil {
				return fmt.Errorf("round %d: %v %v reduce-scatter: %w", i, backend, algo, err)
			}
		}
		return nil
	})
	if err != nil {
		if errors.Is(err, hzccl.ErrMessageCorrupt) {
			t.Fatalf("a healthy fabric reported corruption — a checksum outlived its bytes: %v", err)
		}
		t.Fatal(err)
	}
}

// TestRankZeroDiesOnRealSockets kills rank 0 — the first coordinator of
// every agreement round — mid-Allreduce on a loopback TCP mesh under
// DegradePolicy{Shrink: true}. The survivors must elect rank 1, evict
// rank 0 and finish on the 3-rank world with results bitwise equal to a
// fresh 3-rank run, for hZCCL and MPI on the ring and the hierarchical
// schedule.
func TestRankZeroDiesOnRealSockets(t *testing.T) {
	const world, n = 4, 4096
	m := newLoopbackMesh(t, world)
	topo := hzccl.UniformTopology(2, 2)
	fields := make([][]float32, world)
	for r := range fields {
		fields[r] = sineField(n, 70+int64(r))
	}
	for _, backend := range []hzccl.Backend{hzccl.BackendHZCCL, hzccl.BackendMPI} {
		for _, algo := range []hzccl.Algorithm{hzccl.AlgoRing, hzccl.AlgoHierarchical} {
			t.Run(fmt.Sprintf("%v/%v", backend, algo), func(t *testing.T) {
				opt := hzccl.CollectiveOptions{ErrorBound: 1e-3, Algorithm: algo}
				cfg := hzccl.ClusterConfig{Ranks: world, Topology: topo, Reliable: true, RecvTimeout: 500 * time.Millisecond}
				got := make([][]float32, world)
				chaos, fresh := cfg, cfg
				chaos.Fault = hzccl.KillRank{Rank: 0, AtStep: 1}.Fault()
				chaosOpt := opt
				chaosOpt.Degrade = &hzccl.DegradePolicy{Shrink: true}
				res, err := m.results(chaos, func(r *hzccl.Rank) error {
					id := r.ID()
					out, err := r.Allreduce(fields[id], backend, chaosOpt)
					if id == 0 && errors.Is(err, hzccl.ErrRankKilled) {
						return nil
					}
					got[id] = out
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				for id := 1; id < world; id++ {
					if ev := res[id].Evicted; len(ev) != 1 || ev[0] != 0 {
						t.Fatalf("rank %d: Evicted = %v, want [0]", id, ev)
					}
				}
				fresh.Ranks, fresh.Topology = world-1, topo.WithoutRanks(world, func(v int) bool { return v == 0 })
				want := make([][]float32, world-1)
				if err := (*loopbackMesh)(nil).run(fresh, func(r *hzccl.Rank) error {
					out, err := r.Allreduce(fields[r.ID()+1], backend, opt)
					want[r.ID()] = out
					return err
				}); err != nil {
					t.Fatalf("3-rank reference: %v", err)
				}
				for id := 1; id < world; id++ {
					if a, b := floatbytes.Checksum(got[id]), floatbytes.Checksum(want[id-1]); a != b {
						t.Errorf("survivor %d: digest %08x, fresh 3-rank run %08x", id, a, b)
					}
				}
			})
		}
	}
}
