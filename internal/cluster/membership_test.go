package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestAgreeMaxConcurrentEpochStraggler stresses the consensus plane the
// way the degradation ladder actually uses it: every rank runs several
// AgreeMax rounds interleaved with AdvanceEpoch (which tears down replay
// windows concurrently with the barrier machinery), and one rank
// straggles into each round late. Run with -race; the invariants are
// that every round agrees on the true maximum and no round deadlocks or
// observes a stale generation.
func TestAgreeMaxConcurrentEpochStraggler(t *testing.T) {
	const n, rounds = 5, 8
	cfg := Config{Ranks: n, RecvTimeout: 2 * time.Second, Reliable: true}
	_, err := Run(cfg, func(r *Rank) error {
		for round := 0; round < rounds; round++ {
			if r.ID == round%n {
				// The straggler arrives last — after its peers are already
				// blocked in the round — and with fresh epoch state.
				time.Sleep(5 * time.Millisecond)
			}
			r.AdvanceEpoch()
			v, err := r.AgreeMax(r.ID*10 + round)
			if err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
			if want := (n-1)*10 + round; v != want {
				return fmt.Errorf("round %d: agreed %d, want %d", round, v, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShrinkWorldRenumbers pins the renumbering contract: after evicting
// rank 1 of a 2,2 topology, survivors are dense, Members maps virtual to
// physical ids, and the shrunken topology drops the dead slot.
func TestShrinkWorldRenumbers(t *testing.T) {
	const n = 4
	cfg := Config{Ranks: n, RecvTimeout: 2 * time.Second, Topology: &Topology{NodeSizes: []int{2, 2}}}
	res, err := Run(cfg, func(r *Rank) error {
		if r.ID == 1 {
			err := r.ShrinkWorld(rankBit(1))
			if !errors.Is(err, ErrEvicted) {
				return fmt.Errorf("self-eviction returned %v, want ErrEvicted", err)
			}
			return err
		}
		if err := r.ShrinkWorld(rankBit(1)); err != nil {
			return err
		}
		if r.N != 3 {
			return fmt.Errorf("post-shrink N = %d, want 3", r.N)
		}
		wantID := map[int]int{0: 0, 2: 1, 3: 2}[r.PhysID()]
		if r.ID != wantID {
			return fmt.Errorf("phys %d renumbered to %d, want %d", r.PhysID(), r.ID, wantID)
		}
		members := r.Members()
		for v, p := range []int{0, 2, 3} {
			if members[v] != p {
				return fmt.Errorf("members = %v, want [0 2 3]", members)
			}
		}
		topo := r.Config().Topology
		if topo == nil || len(topo.NodeSizes) != 2 || topo.NodeSizes[0] != 1 || topo.NodeSizes[1] != 2 {
			return fmt.Errorf("shrunken topology = %v, want [1 2]", topo)
		}
		// The shrunken world must still communicate: a full barrier.
		return r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evicted) != 1 || res.Evicted[0] != 1 {
		t.Fatalf("Evicted = %v, want [1]", res.Evicted)
	}
}
