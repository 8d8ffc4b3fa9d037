package costmodel

import (
	"math"
	"testing"
	"time"

	"hzccl/internal/cluster"
	"hzccl/internal/core"
)

// synthetic rates with clean numbers for closed-form checks
func testRates() Rates {
	return Rates{
		Rates: core.Rates{CPR: 1e9, DPR: 2e9, CPT: 10e9, HPR: 20e9},
		Ratio: 10,
		Alpha: 1e-6,
		Beta:  12.5e9,
	}
}

func TestValidate(t *testing.T) {
	r := testRates()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := r
	bad.CPR = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero CPR accepted")
	}
	bad = r
	bad.Alpha = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative Alpha accepted")
	}
}

func TestClosedForms(t *testing.T) {
	r := testRates()
	n := 8
	D := 8e6 // 8 MB total, m = 1 MB blocks
	m := D / float64(n)

	// Plain RS: (N-1)(α + m/β + m/CPT)
	want := 7 * (1e-6 + m/12.5e9 + m/10e9)
	if got := r.ReduceScatter(Plain, n, D); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("plain RS: got %g want %g", got, want)
	}

	// C-Coll RS: (N-1)(m/CPR + α + m/(10β) + m/DPR + m/CPT)
	want = 7 * (m/1e9 + 1e-6 + m/(10*12.5e9) + m/2e9 + m/10e9)
	if got := r.ReduceScatter(CColl, n, D); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("ccoll RS: got %g want %g", got, want)
	}

	// hZCCL RS: N·m/CPR + (N-1)(α + m/(10β) + m/HPR) + m/DPR
	want = 8*(m/1e9) + 7*(1e-6+m/(10*12.5e9)+m/20e9) + m/2e9
	if got := r.ReduceScatter(HZCCL, n, D); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("hz RS: got %g want %g", got, want)
	}

	// hZCCL AR: N·CPR + (N-1)(link+HPR) + (N-1)link + N·DPR
	link := 1e-6 + m/(10*12.5e9)
	want = 8*(m/1e9) + 7*(link+m/20e9) + 7*link + 8*(m/2e9)
	if got := r.Allreduce(HZCCL, n, D); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("hz AR: got %g want %g", got, want)
	}
}

// The paper's headline inequality holds in the bandwidth-bound regime:
// when the effective link bandwidth is well below the compression rates
// (the congested-fabric conditions of the paper's evaluation), the model
// must order hZCCL < C-Coll < MPI. With a fast network and a slow
// compressor the ordering flips — which the model also captures (see
// TestModelFastNetworkFlips).
func TestModelOrdering(t *testing.T) {
	r := testRates()
	r.CPR, r.DPR, r.CPT, r.HPR = 20e9, 40e9, 50e9, 200e9
	r.Beta = 1.5e9 // effective congested bandwidth
	n := 64
	D := 64e6
	tPlain := r.Allreduce(Plain, n, D)
	tCColl := r.Allreduce(CColl, n, D)
	tHZ := r.Allreduce(HZCCL, n, D)
	if !(tHZ < tCColl && tCColl < tPlain) {
		t.Fatalf("expected hZ < C-Coll < plain, got %g %g %g", tHZ, tCColl, tPlain)
	}
	if s := r.Speedup(HZCCL, n, D); s < 1 {
		t.Fatalf("hZCCL speedup %g < 1", s)
	}
}

// With an uncongested fast fabric and a slow single-thread compressor,
// compression cannot pay for itself and the model predicts plain MPI wins.
func TestModelFastNetworkFlips(t *testing.T) {
	r := testRates() // CPR 1 GB/s vs Beta 12.5 GB/s
	tPlain := r.Allreduce(Plain, 64, 64e6)
	tCColl := r.Allreduce(CColl, 64, 64e6)
	if tPlain >= tCColl {
		t.Fatalf("with CPR ≪ β the model should favor plain MPI (plain %g, ccoll %g)", tPlain, tCColl)
	}
}

func TestDegenerateRanks(t *testing.T) {
	r := testRates()
	if r.ReduceScatter(HZCCL, 1, 1e6) != 0 || r.Allreduce(Plain, 1, 1e6) != 0 {
		t.Fatal("single-rank collectives should predict zero time")
	}
}

func TestMeasureCalibration(t *testing.T) {
	sample := make([]float32, 1<<16)
	for i := range sample {
		sample[i] = float32(math.Sin(float64(i) * 1e-4))
	}
	r, err := Measure(sample, 1e-3, time.Microsecond, 12.5e9)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ratio < 2 {
		t.Errorf("calibration ratio %g suspiciously low", r.Ratio)
	}
	if r.CPT < r.CPR {
		t.Errorf("raw sum (%g B/s) should outrun compression (%g B/s)", r.CPT, r.CPR)
	}
}

// Structural cross-check: with the simulator charging compute from the
// model's own rates (core.Options.Rates) instead of measured wall time,
// its virtual time must land on the prediction. This validates that the
// simulator executes exactly the op counts and communication rounds the
// paper's equations describe — and, being free of the clock, it gives the
// same two numbers on every run.
func TestModelMatchesSimulator(t *testing.T) {
	const nRanks, n = 8, 1 << 16
	field := func(rank int) []float32 {
		out := make([]float32, n)
		for i := n / 2; i < n; i++ {
			out[i] = float32(0.15 * math.Sin(float64(i)*2e-5+float64(rank)))
		}
		return out
	}
	rates := testRates()
	rates.Ratio = 8 // rough; link time is negligible at these sizes
	c := core.New(core.Options{ErrorBound: 1e-3,
		Rates: &rates.Rates})
	cfg := cluster.Config{Ranks: nRanks, Latency: time.Duration(rates.Alpha * float64(time.Second)), BandwidthBytes: rates.Beta}
	res, err := cluster.Run(cfg, func(r *cluster.Rank) error {
		_, _, err := c.Allreduce(r, core.FlavorHZ, core.AlgoRing, field(r.ID))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	pred := rates.Allreduce(HZCCL, nRanks, float64(4*n))
	got := res.Time
	if rel := math.Abs(pred-got) / got; rel > 0.05 {
		t.Fatalf("model %.2fus vs simulator %.2fus (rel err %.3f)", pred*1e6, got*1e6, rel)
	}
	t.Logf("model %.2fus, simulator %.2fus", pred*1e6, got*1e6)
}

func TestAllgatherForms(t *testing.T) {
	r := testRates()
	n, m := 8, 1e6
	link := r.Alpha + m/(r.Ratio*r.Beta)
	if got, want := r.Allgather(Plain, n, m), 7*(r.Alpha+m/r.Beta); math.Abs(got-want) > 1e-15 {
		t.Errorf("plain AG: %g want %g", got, want)
	}
	if got, want := r.Allgather(CColl, n, m), m/r.CPR+7*(link+m/r.DPR); math.Abs(got-want) > 1e-15 {
		t.Errorf("ccoll AG: %g want %g", got, want)
	}
	if got, want := r.Allgather(HZCCL, n, m), 7*link+8*(m/r.DPR); math.Abs(got-want) > 1e-15 {
		t.Errorf("hz AG: %g want %g", got, want)
	}
	if r.Allgather(Plain, 1, m) != 0 {
		t.Error("single-rank AG should be zero")
	}
	if !math.IsNaN(r.Allgather(Backend(9), n, m)) || !math.IsNaN(r.ReduceScatter(Backend(9), n, m)) ||
		!math.IsNaN(r.Allreduce(Backend(9), n, m)) {
		t.Error("unknown backend should predict NaN")
	}
}

func TestBackendStrings(t *testing.T) {
	if Plain.String() != "MPI" || CColl.String() != "C-Coll" || HZCCL.String() != "hZCCL" {
		t.Error("backend names")
	}
	if Backend(9).String() == "" {
		t.Error("unknown backend name empty")
	}
}

func TestMeasureRejectsEmpty(t *testing.T) {
	if _, err := Measure(nil, 1e-3, time.Microsecond, 1e9); err == nil {
		t.Error("empty sample accepted")
	}
}

func TestSpeedupDegenerate(t *testing.T) {
	r := testRates()
	if s := r.Speedup(HZCCL, 1, 1e6); s != 0 {
		t.Errorf("single-rank speedup %g", s)
	}
}
