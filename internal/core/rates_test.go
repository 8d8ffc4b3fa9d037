package core

import (
	"math"
	"testing"
	"time"

	"hzccl/internal/cluster"
)

// With modeled rates the virtual time of a collective is a deterministic
// function of the op counts — exactly the paper's cost equations. Verify
// the hZ allreduce charge matches N·CPR + (N−1)·HPR + N·DPR plus the
// modeled communication, independent of wall-clock noise.
func TestModeledChargingMatchesEquations(t *testing.T) {
	const nRanks, n = 4, 1 << 12
	rates := &Rates{CPR: 1e9, DPR: 2e9, CPT: 4e9, HPR: 8e9}
	c := New(Options{ErrorBound: 1e-3, Rates: rates})
	cfg := cluster.Config{Ranks: nRanks, Latency: time.Microsecond, BandwidthBytes: 1e9}

	res, err := cluster.Run(cfg, func(r *cluster.Rank) error {
		_, _, err := c.Allreduce(r, FlavorHZ, AlgoRing, smoothRankField(r.ID, n))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	raw := float64(4 * n)
	m := raw / nRanks
	wantCPR := raw / rates.CPR * nRanks              // each rank compresses all its blocks
	wantHPR := m * (nRanks - 1) / rates.HPR * nRanks // N-1 homomorphic adds per rank
	wantDPR := m * nRanks / rates.DPR * nRanks       // N block decompressions per rank
	for cat, want := range map[cluster.Category]float64{
		cluster.CatCPR: wantCPR,
		cluster.CatHPR: wantHPR,
		cluster.CatDPR: wantDPR,
	} {
		if got := res.Breakdown[cat]; math.Abs(got-want)/want > 1e-9 {
			t.Errorf("%s charge %g, want %g", cat, got, want)
		}
	}
	if res.Breakdown[cluster.CatCPT] != 0 {
		t.Errorf("hZ allreduce charged CPT: %v", res.Breakdown)
	}
	// Determinism: a second run charges identical times.
	res2, err := cluster.Run(cfg, func(r *cluster.Rank) error {
		_, _, err := c.Allreduce(r, FlavorHZ, AlgoRing, smoothRankField(r.ID, n))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Time != res.Time {
		t.Errorf("modeled runs differ: %g vs %g", res.Time, res2.Time)
	}
}

// The MT mode must divide modeled charges by MTSpeedup exactly.
func TestModeledMTScaling(t *testing.T) {
	const nRanks, n = 4, 1 << 12
	rates := &Rates{CPR: 1e9, DPR: 2e9, CPT: 4e9, HPR: 8e9}
	run := func(mode Mode) *cluster.Result {
		c := New(Options{ErrorBound: 1e-3, Mode: mode, Rates: rates})
		res, err := cluster.Run(cluster.Config{Ranks: nRanks}, func(r *cluster.Rank) error {
			_, _, err := c.Allreduce(r, FlavorCColl, AlgoRing, smoothRankField(r.ID, n))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	st := run(SingleThread)
	mt := run(MultiThread)
	for _, cat := range []cluster.Category{cluster.CatCPR, cluster.CatDPR, cluster.CatCPT} {
		ratio := st.Breakdown[cat] / mt.Breakdown[cat]
		if math.Abs(ratio-MTSpeedup) > 1e-6 {
			t.Errorf("%s ST/MT charge ratio %g, want %d", cat, ratio, MTSpeedup)
		}
	}
}
