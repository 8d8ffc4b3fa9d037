package core

import (
	"math"
	"testing"
	"time"

	"hzccl/internal/cluster"
)

func TestActiveRanks(t *testing.T) {
	cases := []struct{ rank, n, p2, newrank int }{
		{0, 8, 8, 0}, {7, 8, 8, 7}, // power of two: identity
		{0, 6, 4, -1}, {1, 6, 4, 0}, {2, 6, 4, -1}, {3, 6, 4, 1}, {4, 6, 4, 2}, {5, 6, 4, 3},
		{0, 5, 4, -1}, {1, 5, 4, 0}, {2, 5, 4, 1}, {4, 5, 4, 3},
	}
	for _, c := range cases {
		p2, nr := activeRanks(c.rank, c.n)
		if p2 != c.p2 || nr != c.newrank {
			t.Errorf("activeRanks(%d,%d) = (%d,%d), want (%d,%d)", c.rank, c.n, p2, nr, c.p2, c.newrank)
		}
		if nr >= 0 && oldRank(nr, c.n, p2) != c.rank {
			t.Errorf("oldRank(%d,%d,%d) != %d", nr, c.n, p2, c.rank)
		}
	}
}

func TestFrameBlobs(t *testing.T) {
	blobs := [][]byte{{1, 2, 3}, {}, {9}}
	got, err := unframeBlobsN(comm{}.frameBlobs(blobs), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || string(got[0]) != "\x01\x02\x03" || len(got[1]) != 0 || got[2][0] != 9 {
		t.Fatalf("frame round trip: %v", got)
	}
	if _, err := unframeBlobsN(comm{}.frameBlobs(blobs), 2); err == nil {
		t.Error("frame with the wrong blob count accepted")
	}
	if _, err := unframeBlobsN([]byte{1}, 1); err == nil {
		t.Error("short frame accepted")
	}
	if _, err := unframeBlobsN([]byte{2, 0, 0, 0, 10, 0, 0, 0}, 2); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestRecursiveAllreduceMatchesExactSum(t *testing.T) {
	c := New(Options{ErrorBound: testEB})
	for _, nRanks := range []int{1, 2, 3, 4, 5, 6, 7, 8, 12, 16} {
		for _, n := range []int{1024, 1000} {
			exact := exactSum(nRanks, n)
			for _, f := range Flavors() {
				for rk, out := range allreduceAll(t, c, f, AlgoRabenseifner, nRanks, nil, n) {
					checkNear(t, out, exact, sumBound(f, AlgoRabenseifner, nRanks), flavorName(f)+" rabenseifner", nRanks, rk)
				}
			}
		}
	}
}

// The recursive algorithm must beat the ring at high latency (its point):
// log2(N) rounds instead of N−1.
func TestRecursiveBeatsRingAtHighLatency(t *testing.T) {
	const nRanks, n = 16, 1 << 12
	rates := &Rates{CPR: 1e9, DPR: 2e9, CPT: 8e9, HPR: 8e9}
	c := New(Options{ErrorBound: testEB, Rates: rates})
	cfg := cluster.Config{Ranks: nRanks, Latency: 200 * time.Microsecond, BandwidthBytes: 1e9}
	run := func(f func(r *cluster.Rank) error) float64 {
		res, err := cluster.Run(cfg, f)
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	tRing := run(func(r *cluster.Rank) error {
		_, _, err := c.Allreduce(r, FlavorHZ, AlgoRing, rankField(r.ID, n))
		return err
	})
	tRec := run(func(r *cluster.Rank) error {
		_, _, err := c.Allreduce(r, FlavorHZ, AlgoRabenseifner, rankField(r.ID, n))
		return err
	})
	if tRec >= tRing {
		t.Fatalf("recursive (%.6fs) not faster than ring (%.6fs) at 200us latency", tRec, tRing)
	}
}

func TestRecursiveHZBreakdown(t *testing.T) {
	const nRanks = 8
	c := New(Options{ErrorBound: testEB})
	res := runCluster(t, nRanks, func(r *cluster.Rank) error {
		_, _, err := c.Allreduce(r, FlavorHZ, AlgoRabenseifner, rankField(r.ID, 4096))
		return err
	})
	if res.Breakdown[cluster.CatCPT] != 0 {
		t.Errorf("recursive HZ charged CPT: %v", res.Breakdown)
	}
	for _, cat := range []cluster.Category{cluster.CatCPR, cluster.CatHPR, cluster.CatDPR} {
		if res.Breakdown[cat] == 0 {
			t.Errorf("recursive HZ missing %s", cat)
		}
	}
}

func TestCPRP2PMatchesExactSum(t *testing.T) {
	for _, nRanks := range []int{1, 2, 5, 8} {
		n := 2048
		exact := exactSum(nRanks, n)
		c := New(Options{ErrorBound: testEB})
		outs := make([][]float32, nRanks)
		runCluster(t, nRanks, func(r *cluster.Rank) error {
			out, err := c.AllreduceCPRP2P(r, rankField(r.ID, n))
			outs[r.ID] = out
			return err
		})
		// Per-hop recompression adds up to one eb per forward hop on top
		// of the DOC budget.
		bound := 3*float64(nRanks)*testEB + 1e-4
		for rk, out := range outs {
			if len(out) != n {
				t.Fatalf("ranks=%d rank %d: %d elems", nRanks, rk, len(out))
			}
			for i := range out {
				if d := math.Abs(float64(out[i]) - exact[i]); d > bound {
					t.Fatalf("cpr-p2p ranks=%d rank %d elem %d: err %g (bound %g)", nRanks, rk, i, d, bound)
				}
			}
		}
	}
}

// The paper's baseline ordering: hZCCL < C-Coll < CPR-P2P in virtual time
// (modeled rates, deterministic).
func TestBaselineOrdering(t *testing.T) {
	const nRanks, n = 8, 1 << 16
	rates := &Rates{CPR: 1e9, DPR: 2e9, CPT: 8e9, HPR: 9e9}
	c := New(Options{ErrorBound: testEB, Rates: rates})
	cfg := cluster.Config{Ranks: nRanks, BandwidthBytes: 0.4e9}
	run := func(f func(r *cluster.Rank) error) float64 {
		res, err := cluster.Run(cfg, f)
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	tP2P := run(func(r *cluster.Rank) error {
		_, err := c.AllreduceCPRP2P(r, smoothRankField(r.ID, n))
		return err
	})
	tCColl := run(func(r *cluster.Rank) error {
		_, _, err := c.Allreduce(r, FlavorCColl, AlgoRing, smoothRankField(r.ID, n))
		return err
	})
	tHZ := run(func(r *cluster.Rank) error {
		_, _, err := c.Allreduce(r, FlavorHZ, AlgoRing, smoothRankField(r.ID, n))
		return err
	})
	if !(tHZ < tCColl && tCColl < tP2P) {
		t.Fatalf("expected hZ < C-Coll < CPR-P2P, got %.6f %.6f %.6f", tHZ, tCColl, tP2P)
	}
}
