package core

import (
	"fmt"
	"math"
	"testing"

	"hzccl/internal/cluster"
)

// moveTol is the per-element tolerance of a data-movement collective: bit
// for bit in the plain flavor and for a rank's own contribution, which never
// passes through the compressor; one quantization otherwise.
func moveTol(f Flavor, own bool) float64 {
	if f == FlavorPlain || own {
		return 0
	}
	return testEB + 1e-6
}

// checkMoved compares moved values against their source.
func checkMoved(t *testing.T, got, want []float32, tol float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elems, want %d", label, len(got), len(want))
	}
	for i := range got {
		if d := math.Abs(float64(got[i]) - float64(want[i])); d > tol {
			t.Fatalf("%s: elem %d err %g > %g", label, i, d, tol)
		}
	}
}

func TestBroadcastBothBackends(t *testing.T) {
	c := New(Options{ErrorBound: testEB})
	for _, nRanks := range []int{1, 2, 3, 5, 8, 13} {
		for root := 0; root < nRanks; root += 2 {
			src := rankField(root, 1000)
			for _, f := range Flavors() {
				outs := make([][]float32, nRanks)
				runCluster(t, nRanks, func(r *cluster.Rank) (err error) {
					outs[r.ID], err = c.Broadcast(r, f, src, root)
					return err
				})
				for rk, out := range outs {
					checkMoved(t, out, src, moveTol(f, rk == root),
						fmt.Sprintf("%s bcast n=%d root=%d rank %d", flavorName(f), nRanks, root, rk))
				}
			}
		}
	}
}

func TestBroadcastBadRoot(t *testing.T) {
	c := New(Options{ErrorBound: testEB})
	for _, f := range Flavors() {
		_, err := cluster.Run(cluster.Config{Ranks: 2}, func(r *cluster.Rank) error {
			_, err := c.Broadcast(r, f, []float32{1}, 5)
			return err
		})
		if err == nil {
			t.Fatalf("%s: out-of-range root accepted", flavorName(f))
		}
	}
}

func TestGatherBothBackends(t *testing.T) {
	c := New(Options{ErrorBound: testEB})
	for _, nRanks := range []int{1, 2, 4, 7} {
		root := nRanks / 2
		for _, f := range Flavors() {
			var rootOut [][]float32
			runCluster(t, nRanks, func(r *cluster.Rank) error {
				out, err := c.Gather(r, f, rankField(r.ID, 500), root)
				if r.ID == root {
					rootOut = out
				} else if out != nil {
					return fmt.Errorf("non-root rank %d received gather output", r.ID)
				}
				return err
			})
			if len(rootOut) != nRanks {
				t.Fatalf("%s: root gathered %d payloads", flavorName(f), len(rootOut))
			}
			for origin, vals := range rootOut {
				checkMoved(t, vals, rankField(origin, 500), moveTol(f, origin == root),
					fmt.Sprintf("%s gather n=%d origin %d", flavorName(f), nRanks, origin))
			}
		}
	}
}

func TestAllgatherBothBackends(t *testing.T) {
	const nRanks = 6
	c := New(Options{ErrorBound: testEB})
	for _, f := range Flavors() {
		outs := make([][][]float32, nRanks)
		runCluster(t, nRanks, func(r *cluster.Rank) (err error) {
			outs[r.ID], err = c.Allgather(r, f, rankField(r.ID, 700))
			return err
		})
		for rk, all := range outs {
			if len(all) != nRanks {
				t.Fatalf("%s allgather rank %d: %d contributions", flavorName(f), rk, len(all))
			}
			for origin, vals := range all {
				checkMoved(t, vals, rankField(origin, 700), moveTol(f, origin == rk),
					fmt.Sprintf("%s allgather rank %d origin %d", flavorName(f), rk, origin))
			}
		}
	}
}

func TestReducePlainAndHZ(t *testing.T) {
	const n = 1200
	c := New(Options{ErrorBound: testEB})
	for _, nRanks := range []int{1, 2, 5, 8} {
		root := nRanks - 1
		exact := exactSum(nRanks, n)
		for _, f := range Flavors() {
			var got []float32
			runCluster(t, nRanks, func(r *cluster.Rank) error {
				out, _, err := c.Reduce(r, f, rankField(r.ID, n), root)
				if r.ID == root {
					got = out
				} else if out != nil {
					return fmt.Errorf("non-root received reduce output")
				}
				return err
			})
			bound := sumBound(f, AlgoRing, nRanks)
			if f == FlavorHZ {
				bound = float64(nRanks)*testEB + 1e-4 // one quantization per operand, no DOC hops
			}
			checkNear(t, got, exact, bound, flavorName(f)+" reduce", nRanks, root)
		}
	}
}

func TestReduceBadRoot(t *testing.T) {
	c := New(Options{ErrorBound: testEB})
	for _, f := range Flavors() {
		_, err := cluster.Run(cluster.Config{Ranks: 2}, func(r *cluster.Rank) error {
			_, _, err := c.Reduce(r, f, []float32{1}, -1)
			return err
		})
		if err == nil {
			t.Fatalf("%s: out-of-range root accepted", flavorName(f))
		}
	}
}

// The homomorphic rooted reduce must match the plain reduce within the
// accumulated quantization budget and charge HPR, never CPT.
func TestReduceHZBreakdown(t *testing.T) {
	const nRanks = 8
	c := New(Options{ErrorBound: testEB})
	res := runCluster(t, nRanks, func(r *cluster.Rank) error {
		_, _, err := c.Reduce(r, FlavorHZ, rankField(r.ID, 4096), 0)
		return err
	})
	if res.Breakdown[cluster.CatCPT] != 0 {
		t.Errorf("ReduceHZ charged CPT: %v", res.Breakdown)
	}
	for _, cat := range []cluster.Category{cluster.CatCPR, cluster.CatHPR, cluster.CatDPR} {
		if res.Breakdown[cat] == 0 {
			t.Errorf("ReduceHZ missing %s", cat)
		}
	}
}

func TestAlltoallBothBackends(t *testing.T) {
	const n = 960
	c := New(Options{ErrorBound: testEB})
	for _, nRanks := range []int{1, 2, 4, 6} {
		for _, f := range Flavors() {
			outs := make([][][]float32, nRanks)
			runCluster(t, nRanks, func(r *cluster.Rank) (err error) {
				outs[r.ID], err = c.Alltoall(r, f, rankField(r.ID, n))
				return err
			})
			for rk, blocks := range outs {
				s, e := BlockBounds(n, nRanks, rk)
				for src, vals := range blocks {
					checkMoved(t, vals, rankField(src, n)[s:e], moveTol(f, src == rk),
						fmt.Sprintf("%s alltoall n=%d rank %d from %d", flavorName(f), nRanks, rk, src))
				}
			}
		}
	}
}

// On a slow network the compressed broadcast must beat the plain one in
// virtual time (compressible payload, modeled rates for determinism).
func TestCompressedBroadcastFaster(t *testing.T) {
	const nRanks, n = 8, 1 << 16
	rates := &Rates{CPR: 1e9, DPR: 2e9, CPT: 8e9, HPR: 8e9}
	c := New(Options{ErrorBound: testEB, Rates: rates})
	cfg := cluster.Config{Ranks: nRanks, BandwidthBytes: 0.2e9}
	src := smoothRankField(0, n) // highly compressible

	run := func(f func(r *cluster.Rank) error) float64 {
		res, err := cluster.Run(cfg, f)
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	tPlain := run(func(r *cluster.Rank) error {
		_, err := c.Broadcast(r, FlavorPlain, src, 0)
		return err
	})
	tComp := run(func(r *cluster.Rank) error {
		_, err := c.Broadcast(r, FlavorCColl, src, 0)
		return err
	})
	if tComp >= tPlain {
		t.Fatalf("compressed broadcast (%g) not faster than plain (%g)", tComp, tPlain)
	}
}

func TestSegmentedMatchesUnsegmented(t *testing.T) {
	const nRanks, n = 6, 4096
	exact := exactSum(nRanks, n)
	plain := New(Options{ErrorBound: testEB})
	seg := New(Options{ErrorBound: testEB, Segments: 4})

	blocks := make([][]float32, nRanks)
	runCluster(t, nRanks, func(r *cluster.Rank) error {
		b, err := seg.ReduceScatterCCollSegmented(r, rankField(r.ID, n))
		blocks[r.ID] = b
		return err
	})
	for rk, block := range blocks {
		k := BlockOwned(rk, nRanks)
		s, _ := BlockBounds(n, nRanks, k)
		for i := range block {
			if d := math.Abs(float64(block[i]) - exact[s+i]); d > 2*float64(nRanks)*testEB+1e-4 {
				t.Fatalf("segmented RS rank %d elem %d err %g", rk, i, d)
			}
		}
	}

	outs := make([][]float32, nRanks)
	runCluster(t, nRanks, func(r *cluster.Rank) error {
		out, err := seg.AllreduceCCollSegmented(r, rankField(r.ID, n))
		outs[r.ID] = out
		return err
	})
	for rk, out := range outs {
		checkNear(t, out, exact, sumBound(FlavorCColl, AlgoRing, nRanks), "segmented allreduce", nRanks, rk)
	}

	// Segments <= 1 must fall back to the unsegmented implementation and
	// produce identical values.
	one := New(Options{ErrorBound: testEB, Segments: 1})
	a := make([][]float32, nRanks)
	b := make([][]float32, nRanks)
	runCluster(t, nRanks, func(r *cluster.Rank) error {
		out, err := one.AllreduceCCollSegmented(r, rankField(r.ID, n))
		a[r.ID] = out
		return err
	})
	runCluster(t, nRanks, func(r *cluster.Rank) error {
		out, _, err := plain.Allreduce(r, FlavorCColl, AlgoRing, rankField(r.ID, n))
		b[r.ID] = out
		return err
	})
	for rk := range a {
		for i := range a[rk] {
			if a[rk][i] != b[rk][i] {
				t.Fatalf("Segments=1 fallback differs at rank %d elem %d", rk, i)
			}
		}
	}
}

// With modeled rates, segmentation must reduce the virtual completion
// time of the C-Coll allreduce when transfers are substantial relative to
// compute: compression of segment k+1 overlaps the wire time of segment
// k. Noisy data (modest ratio) keeps the wire share high — the regime
// segmentation exists for.
func TestSegmentationOverlapsPipeline(t *testing.T) {
	const nRanks, n = 8, 1 << 17
	rates := &Rates{CPR: 1e9, DPR: 2e9, CPT: 8e9, HPR: 8e9}
	cfg := cluster.Config{Ranks: nRanks, BandwidthBytes: 0.3e9}
	run := func(segments int) float64 {
		c := New(Options{ErrorBound: testEB, Rates: rates, Segments: segments})
		res, err := cluster.Run(cfg, func(r *cluster.Rank) error {
			_, err := c.AllreduceCCollSegmented(r, rankField(r.ID, n))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	t1 := run(1)
	t8 := run(8)
	if t8 >= t1 {
		t.Fatalf("segmentation did not overlap: S=8 %.6fs vs S=1 %.6fs", t8, t1)
	}
}

func TestSegRanges(t *testing.T) {
	for _, tc := range []struct{ n, s int }{{100, 4}, {7, 3}, {5, 10}, {0, 4}, {1, 1}} {
		ranges := segRanges(tc.n, tc.s)
		prev := 0
		for _, rg := range ranges {
			if rg[0] != prev {
				t.Fatalf("n=%d s=%d: gap at %v", tc.n, tc.s, rg)
			}
			prev = rg[1]
		}
		if prev != tc.n {
			t.Fatalf("n=%d s=%d: ranges end at %d", tc.n, tc.s, prev)
		}
	}
}
