package hzccl_test

import (
	"errors"
	"math"
	"testing"

	"hzccl"
)

// rankedField returns per-rank deterministic data for collective tests.
func rankedField(rank, n int) []float32 {
	return sineField(n, int64(rank)*104729+7)
}

func exactAllreduce(ranks, n int) []float64 {
	out := make([]float64, n)
	for r := 0; r < ranks; r++ {
		for i, v := range rankedField(r, n) {
			out[i] += float64(v)
		}
	}
	return out
}

// TestAlgorithmsAllBackends runs every (algorithm × backend) pair through
// the public API and checks the result against the float64 oracle.
func TestAlgorithmsAllBackends(t *testing.T) {
	const ranks, n = 8, 2000
	exact := exactAllreduce(ranks, n)
	topo := hzccl.UniformTopology(2, 4)
	algos := []hzccl.Algorithm{
		hzccl.AlgoRing, hzccl.AlgoRecursiveDoubling,
		hzccl.AlgoRabenseifner, hzccl.AlgoHierarchical, hzccl.AlgoAuto,
	}
	for _, b := range []hzccl.Backend{hzccl.BackendMPI, hzccl.BackendCColl, hzccl.BackendHZCCL} {
		for _, algo := range algos {
			opt := hzccl.CollectiveOptions{ErrorBound: 1e-3, Algorithm: algo}
			outs := make([][]float32, ranks)
			blocks := make([][]float32, ranks)
			bounds := make([][2]int, ranks)
			res, err := hzccl.RunCluster(hzccl.ClusterConfig{Ranks: ranks, Topology: topo}, func(r *hzccl.Rank) error {
				out, err := r.Allreduce(rankedField(r.ID(), n), b, opt)
				if err != nil {
					return err
				}
				outs[r.ID()] = out
				block, err := r.ReduceScatter(rankedField(r.ID(), n), b, opt)
				if err != nil {
					return err
				}
				blocks[r.ID()] = block
				_, s, e := r.OwnedBlock(n)
				bounds[r.ID()] = [2]int{s, e}
				return nil
			})
			if err != nil {
				t.Fatalf("%v/%v: %v", b, algo, err)
			}
			bound := 1e-3
			if b != hzccl.BackendMPI {
				bound = 2*float64(ranks+8)*1e-3 + 1e-4
			}
			for rk, out := range outs {
				if len(out) != n {
					t.Fatalf("%v/%v rank %d: %d elems", b, algo, rk, len(out))
				}
				for i := range out {
					if d := math.Abs(float64(out[i]) - exact[i]); d > bound {
						t.Fatalf("%v/%v rank %d elem %d: err %g", b, algo, rk, i, d)
					}
				}
			}
			// Reduce-scatter returns the world-owned block of the same sum.
			for rk, block := range blocks {
				s, e := bounds[rk][0], bounds[rk][1]
				if len(block) != e-s {
					t.Fatalf("%v/%v rank %d: block len %d, want %d", b, algo, rk, len(block), e-s)
				}
				for i := range block {
					if d := math.Abs(float64(block[i]) - exact[s+i]); d > bound {
						t.Fatalf("%v/%v rank %d rs elem %d: err %g", b, algo, rk, i, d)
					}
				}
			}
			// Every rank recorded two choices (allreduce + reduce_scatter),
			// all resolving to the same fixed algorithm.
			if len(res.AlgoChoices) != 2*ranks {
				t.Fatalf("%v/%v: %d algo choices, want %d", b, algo, len(res.AlgoChoices), 2*ranks)
			}
			for _, ch := range res.AlgoChoices {
				if algo == hzccl.AlgoAuto {
					if !ch.Auto || ch.Algorithm == hzccl.AlgoAuto {
						t.Fatalf("%v/%v: unresolved auto choice %+v", b, algo, ch)
					}
					if ch.ModeledSeconds <= 0 {
						t.Fatalf("%v/%v: auto choice without modeled cost %+v", b, algo, ch)
					}
				} else if ch.Auto || ch.Algorithm != algo {
					t.Fatalf("%v/%v: unexpected choice %+v", b, algo, ch)
				}
			}
		}
	}
}

// TestAutoDeterministic checks that AlgoAuto resolves identically across
// ranks and across runs.
func TestAutoDeterministic(t *testing.T) {
	opt := hzccl.CollectiveOptions{ErrorBound: 1e-3, Algorithm: hzccl.AlgoAuto}
	pick := func() hzccl.Algorithm {
		var res *hzccl.RunResult
		var err error
		res, err = hzccl.RunCluster(hzccl.ClusterConfig{Ranks: 8, Topology: hzccl.UniformTopology(4, 2)},
			func(r *hzccl.Rank) error {
				_, e := r.Allreduce(rankedField(r.ID(), 512), hzccl.BackendHZCCL, opt)
				return e
			})
		if err != nil {
			t.Fatal(err)
		}
		got := res.AlgoChoices[0].Algorithm
		for _, ch := range res.AlgoChoices {
			if ch.Algorithm != got {
				t.Fatalf("ranks disagree: %+v vs %v", ch, got)
			}
		}
		return got
	}
	first := pick()
	for i := 0; i < 3; i++ {
		if got := pick(); got != first {
			t.Fatalf("run %d chose %v, first chose %v", i, got, first)
		}
	}
}

// TestBadAlgorithmRejected checks the typed, non-degradable rejection of
// unknown algorithms.
func TestBadAlgorithmRejected(t *testing.T) {
	_, err := hzccl.RunCluster(hzccl.ClusterConfig{Ranks: 2}, func(r *hzccl.Rank) error {
		_, err := r.Allreduce(make([]float32, 64), hzccl.BackendMPI,
			hzccl.CollectiveOptions{Algorithm: hzccl.Algorithm(42)})
		if err == nil {
			return errors.New("accepted Algorithm(42)")
		}
		if !errors.Is(err, hzccl.ErrBadAlgorithm) {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Under a DegradePolicy the error must abort, not walk the ladder.
	res, err := hzccl.RunCluster(hzccl.ClusterConfig{Ranks: 2, RecvTimeout: 200 * 1e6}, func(r *hzccl.Rank) error {
		_, err := r.Allreduce(make([]float32, 64), hzccl.BackendHZCCL, hzccl.CollectiveOptions{
			ErrorBound: 1e-3,
			Algorithm:  hzccl.Algorithm(-1),
			Degrade:    &hzccl.DegradePolicy{},
		})
		if err == nil {
			return errors.New("degrade ladder healed an invalid algorithm")
		}
		if !errors.Is(err, hzccl.ErrBadAlgorithm) {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degradations) != 0 {
		t.Fatalf("invalid algorithm caused degradations: %v", res.Degradations)
	}
}

// TestAlgoChoicesBounded checks that a long session does not grow
// RunResult.AlgoChoices with every collective call: after 100k calls each
// rank still reports only its 64 most recent choices, the newest last.
func TestAlgoChoicesBounded(t *testing.T) {
	const ranks, keep = 2, 64
	calls := 100_000
	if testing.Short() {
		calls = 10_000
	}
	last := hzccl.CollectiveOptions{Algorithm: hzccl.AlgoRecursiveDoubling}
	res, err := hzccl.RunCluster(hzccl.ClusterConfig{Ranks: ranks}, func(r *hzccl.Rank) error {
		data := rankedField(r.ID(), 4)
		for i := 0; i < calls-1; i++ {
			if _, err := r.Allreduce(data, hzccl.BackendMPI, hzccl.CollectiveOptions{}); err != nil {
				return err
			}
		}
		_, err := r.Allreduce(data, hzccl.BackendMPI, last)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AlgoChoices) != ranks*keep {
		t.Fatalf("%d algo choices after %d calls on %d ranks, want %d", len(res.AlgoChoices), calls, ranks, ranks*keep)
	}
	for i, ch := range res.AlgoChoices {
		want := hzccl.AlgoRing
		if i%keep == keep-1 {
			want = hzccl.AlgoRecursiveDoubling // the final call, last in its rank's window
		}
		if ch.Rank != i/keep || ch.Algorithm != want {
			t.Fatalf("choice %d: %+v, want rank %d %v", i, ch, i/keep, want)
		}
	}
}
