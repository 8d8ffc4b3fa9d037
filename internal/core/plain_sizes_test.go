package core

import (
	"errors"
	"testing"
	"time"

	"hzccl/internal/cluster"
)

// Hardening regression for the plain receive paths: a peer that sends a
// short, a long or a ragged (not a whole number of float32s) payload in
// place of its block must get the receiver one typed ErrSizeMismatch —
// before this was checked, a short payload under-reduced silently, a long
// one indexed out of range, and a folded-out rank returned whatever length
// arrived.
//
// Each case scripts one misbehaving rank ("bad") with raw sends and
// receives: it plays the schedule correctly up to the step under test
// (zeros of the right size) and then sends the malformed payload to the
// "victim", which runs the real collective and must fail typed. The other
// ranks run it too; they may finish or fail as the world falls apart, but
// nobody may panic or outlive the receive timeout.

const sizeTestLen = 64 // floats per rank; every block is ≥ 8 floats

type sizeCase struct {
	name        string
	world       int
	topology    string // "" = flat
	bad, victim int
	want        int // floats the victim expects in the malformed payload's place
	// script is the bad rank's part; bad sends malformed via send.
	script func(r *cluster.Rank, malformed func(to int) error) error
	// run is what every other rank executes.
	run func(c Collectives, r *cluster.Rank, data []float32) error
	// raggedOnly marks collectives whose contributions may legitimately
	// differ in length (gather, allgather): only a ragged payload is wrong.
	raggedOnly bool
}

func zeros(r *cluster.Rank, to, floats int) error { return r.Send(to, make([]byte, 4*floats)) }

func drain(r *cluster.Rank, from int) error {
	_, err := r.Recv(from)
	return err
}

// steps runs scripted moves in order, stopping at the first error.
func steps(moves ...func() error) error {
	for _, m := range moves {
		if err := m(); err != nil {
			return err
		}
	}
	return nil
}

func sizeCases() []sizeCase {
	const L, half = sizeTestLen, sizeTestLen / 2
	allreduce := func(f Flavor, a Algorithm) func(Collectives, *cluster.Rank, []float32) error {
		return func(c Collectives, r *cluster.Rank, d []float32) error {
			_, _, err := c.Allreduce(r, f, a, d)
			return err
		}
	}
	reduceScatter := func(a Algorithm) func(Collectives, *cluster.Rank, []float32) error {
		return func(c Collectives, r *cluster.Rank, d []float32) error {
			_, _, err := c.ReduceScatter(r, FlavorPlain, a, d)
			return err
		}
	}
	ringAR, ringRS := allreduce(FlavorPlain, AlgoRing), reduceScatter(AlgoRing)
	rd, rab := allreduce(FlavorPlain, AlgoRecursiveDoubling), allreduce(FlavorPlain, AlgoRabenseifner)
	hierAR, hierRS := allreduce(FlavorPlain, AlgoHierarchical), reduceScatter(AlgoHierarchical)
	hzRab := allreduce(FlavorHZ, AlgoRabenseifner)
	first := func(to int) func(*cluster.Rank, func(int) error) error {
		return func(_ *cluster.Rank, malformed func(int) error) error { return malformed(to) }
	}
	// exchange is one correct scripted step with a peer.
	exchange := func(r *cluster.Rank, peer, floats int) func() error {
		return func() error {
			return steps(func() error { return zeros(r, peer, floats) }, func() error { return drain(r, peer) })
		}
	}
	// foldedOdd plays rank 1 of a 3-rank world (fold with 0, one full-vector
	// or half-vector round with rank 2) and then sends the unfold.
	foldedOdd := func(roundFloats ...int) func(*cluster.Rank, func(int) error) error {
		return func(r *cluster.Rank, malformed func(int) error) error {
			moves := []func() error{func() error { return drain(r, 0) }}
			for _, n := range roundFloats {
				moves = append(moves, exchange(r, 2, n))
			}
			return steps(append(moves, func() error { return malformed(0) })...)
		}
	}
	// leaderOfTwo plays rank 0 of a one-node, two-rank world through the
	// intra-node reduce-scatter and the gather, then sends stage 4.
	leaderOfTwo := func(r *cluster.Rank, malformed func(int) error) error {
		return steps(exchange(r, 1, half), func() error { return drain(r, 1) }, func() error { return malformed(1) })
	}
	return []sizeCase{
		{name: "ring reduce-scatter step", world: 4, bad: 1, victim: 2, want: L / 4, script: first(2), run: ringRS},
		{name: "ring allreduce step", world: 4, bad: 1, victim: 2, want: L / 4, script: first(2), run: ringAR},
		{name: "ring allgather", world: 2, bad: 1, victim: 0, want: half, run: ringAR,
			script: func(r *cluster.Rank, malformed func(int) error) error {
				return steps(exchange(r, 0, half), func() error { return malformed(0) })
			}},
		{name: "rd doubling", world: 4, bad: 1, victim: 0, want: L, script: first(0), run: rd},
		{name: "rd fold", world: 3, bad: 0, victim: 1, want: L, script: first(1), run: rd},
		{name: "rd unfold", world: 3, bad: 1, victim: 0, want: L, script: foldedOdd(L), run: rd},
		{name: "rabenseifner halving", world: 2, bad: 1, victim: 0, want: half, script: first(0), run: rab},
		{name: "rabenseifner doubling", world: 2, bad: 1, victim: 0, want: half, run: rab,
			script: func(r *cluster.Rank, malformed func(int) error) error {
				return steps(exchange(r, 0, half), func() error { return malformed(0) })
			}},
		{name: "rabenseifner fold", world: 3, bad: 0, victim: 1, want: L, script: first(1), run: rab},
		{name: "rabenseifner unfold", world: 3, bad: 1, victim: 0, want: L, script: foldedOdd(half, half), run: rab},
		{name: "hz rabenseifner raw unfold", world: 3, bad: 1, victim: 0, want: L, script: foldedOdd(), run: hzRab},
		{name: "hierarchical intra-node step", world: 2, topology: "2", bad: 1, victim: 0, want: half, script: first(0), run: hierAR},
		{name: "hierarchical gather", world: 2, topology: "2", bad: 1, victim: 0, want: half, run: hierAR,
			script: func(r *cluster.Rank, malformed func(int) error) error {
				return steps(exchange(r, 0, half), func() error { return malformed(0) })
			}},
		{name: "hierarchical broadcast", world: 2, topology: "2", bad: 0, victim: 1, want: L, script: leaderOfTwo, run: hierAR},
		{name: "hierarchical scatter", world: 2, topology: "2", bad: 0, victim: 1, want: half, script: leaderOfTwo, run: hierRS},
		{name: "hierarchical leader ring", world: 2, topology: "1,1", bad: 1, victim: 0, want: half, script: first(0), run: hierAR},
		{name: "reduce", world: 2, bad: 1, victim: 0, want: L, script: first(0),
			run: func(c Collectives, r *cluster.Rank, d []float32) error {
				_, _, err := c.Reduce(r, FlavorPlain, d, 0)
				return err
			}},
		{name: "broadcast", world: 2, bad: 0, victim: 1, want: L, script: first(1),
			run: func(c Collectives, r *cluster.Rank, d []float32) error {
				_, err := c.Broadcast(r, FlavorPlain, d, 0)
				return err
			}},
		{name: "alltoall", world: 2, bad: 1, victim: 0, want: half, script: first(0),
			run: func(c Collectives, r *cluster.Rank, d []float32) error {
				_, err := c.Alltoall(r, FlavorPlain, d)
				return err
			}},
		{name: "allgather", world: 2, bad: 1, victim: 0, want: L, script: first(0), raggedOnly: true,
			run: func(c Collectives, r *cluster.Rank, d []float32) error {
				_, err := c.Allgather(r, FlavorPlain, d)
				return err
			}},
		{name: "gather", world: 2, bad: 1, victim: 0, raggedOnly: true,
			// One {origin 1, 6 bytes} pair in the gather tree's framing.
			script: func(r *cluster.Rank, _ func(int) error) error {
				return r.Send(0, []byte{1, 0, 0, 0, 1, 0, 0, 0, 6, 0, 0, 0, 9, 9, 9, 9, 9, 9})
			},
			run: func(c Collectives, r *cluster.Rank, d []float32) error {
				_, err := c.Gather(r, FlavorPlain, d, 0)
				return err
			}},
	}
}

func TestPlainSizeMismatchTyped(t *testing.T) {
	const recvTimeout = 2 * time.Second
	c := New(Options{ErrorBound: testEB})
	for _, tc := range sizeCases() {
		payloads := map[string]int{"short": 4 * (tc.want - 1), "long": 4 * (tc.want + 1), "ragged": 4*tc.want + 2}
		if tc.raggedOnly {
			payloads = map[string]int{"ragged": 4*tc.want + 2}
		}
		for kind, nbytes := range payloads {
			t.Run(tc.name+"/"+kind, func(t *testing.T) {
				cfg := cluster.Config{Ranks: tc.world, RecvTimeout: recvTimeout}
				if tc.topology != "" {
					topo, err := cluster.ParseTopology(tc.topology)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Topology = topo
				}
				errs := make([]error, tc.world)
				start := time.Now()
				_, _ = cluster.Run(cfg, func(r *cluster.Rank) error {
					if r.ID == tc.bad {
						return tc.script(r, func(to int) error { return r.Send(to, make([]byte, nbytes)) })
					}
					errs[r.ID] = tc.run(c, r, rankField(r.ID, sizeTestLen))
					return errs[r.ID]
				})
				if d := time.Since(start); d >= recvTimeout {
					t.Errorf("world took %v to fall apart: somebody hung to the receive timeout", d)
				}
				if !errors.Is(errs[tc.victim], ErrSizeMismatch) {
					t.Fatalf("victim rank %d got %v, want ErrSizeMismatch", tc.victim, errs[tc.victim])
				}
			})
		}
	}
}
