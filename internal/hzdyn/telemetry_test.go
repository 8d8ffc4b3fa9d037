package hzdyn

import (
	"math"
	"testing"

	"hzccl/internal/fzlight"
	"hzccl/internal/telemetry"
)

// fourCaseOperands builds one chunk of four 32-element blocks per operand,
// arranged so the reducer is forced through each pipeline exactly once:
//
//	pair 0: a const,    b const    → ① both-constant
//	pair 1: a const,    b varying  → ② left-constant
//	pair 2: a varying,  b const    → ③ right-constant
//	pair 3: a varying,  b varying  → ④ both-encoded
//
// A block is constant iff every quantized delta in it is zero, including
// the delta across the preceding block boundary, so the varying blocks
// are bumps that return to the operand's base value before a constant
// block follows.
func fourCaseOperands(t *testing.T, eb float64) (a, b []byte) {
	t.Helper()
	const B = 32
	bump := func(i int) float64 {
		// Zero at both block edges, amplitude far above the quantization
		// step in between.
		return math.Sin(math.Pi*float64(i)/float64(B-1)) * 1000 * eb * float64(2+i%3)
	}
	av := make([]float32, 4*B)
	bv := make([]float32, 4*B)
	for i := 0; i < B; i++ {
		av[0*B+i] = 1.0 // pair 0: const
		bv[0*B+i] = 2.0
		av[1*B+i] = 1.0 // pair 1: a const, b bump
		bv[1*B+i] = float32(2.0 + bump(i))
		av[2*B+i] = float32(1.0 + bump(i)) // pair 2: a bump, b const
		bv[2*B+i] = 2.0
		av[3*B+i] = float32(1.0 + bump(i)) // pair 3: both bump
		bv[3*B+i] = float32(2.0 + bump((i+5)%B))
	}
	p := fzlight.Params{ErrorBound: eb, BlockSize: B}
	ca, err := fzlight.Compress(av, p)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := fzlight.Compress(bv, p)
	if err != nil {
		t.Fatal(err)
	}
	return ca, cb
}

// TestPipelineSelectionFourCases drives the heuristic through each of the
// paper's four cases and asserts both the returned Stats and the global
// telemetry histogram record exactly one block pair per case.
func TestPipelineSelectionFourCases(t *testing.T) {
	const eb = 1e-3
	ca, cb := fourCaseOperands(t, eb)

	before := telemetry.Capture()
	sum, st, err := Add(ca, cb)
	if err != nil {
		t.Fatal(err)
	}

	if st.Blocks != 4 {
		t.Fatalf("blocks = %d, want 4", st.Blocks)
	}
	for p := PipelineBothConstant; p <= PipelineBothEncoded; p++ {
		if st.Pipeline[p] != 1 {
			t.Fatalf("pipeline %d count = %d, want 1 (stats %+v)", p, st.Pipeline[p], st)
		}
	}

	d := telemetry.Capture().Delta(before)
	ph := d.Histograms["hzdyn.pipeline_case"]
	if ph.Count != 4 {
		t.Fatalf("telemetry pipeline_case count = %d, want 4", ph.Count)
	}
	want := map[string]int64{"1": 1, "2": 1, "3": 1, "4": 1}
	got := map[string]int64{}
	var sumCases int64
	for _, bkt := range ph.Buckets {
		got[bkt.Le] = bkt.Count
		sumCases += bkt.Count
	}
	for le, n := range want {
		if got[le] != n {
			t.Fatalf("telemetry case le=%s count = %d, want %d (buckets %v)", le, got[le], n, ph.Buckets)
		}
	}
	if blocks := d.Counters["hzdyn.blocks"]; sumCases != blocks {
		t.Fatalf("case counts sum %d != hzdyn.blocks %d", sumCases, blocks)
	}
	if calls := d.Counters["hzdyn.add.calls"]; calls != 1 {
		t.Fatalf("hzdyn.add.calls = %d, want 1", calls)
	}

	// The homomorphic sum must still decompress to a+b within 2·eb.
	da, err := fzlight.Decompress(ca)
	if err != nil {
		t.Fatal(err)
	}
	db, err := fzlight.Decompress(cb)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := fzlight.Decompress(sum)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds {
		if diff := math.Abs(float64(ds[i]) - float64(da[i]) - float64(db[i])); diff > 2*eb+1e-9 {
			t.Fatalf("sum error %g at %d exceeds 2·eb", diff, i)
		}
	}
}

// StaticAdd routes every pair through pipeline ④; the telemetry histogram
// must reflect that.
func TestStaticAddRecordsAllBothEncoded(t *testing.T) {
	ca, cb := fourCaseOperands(t, 1e-3)
	before := telemetry.Capture()
	if _, err := StaticAdd(ca, cb); err != nil {
		t.Fatal(err)
	}
	d := telemetry.Capture().Delta(before)
	ph := d.Histograms["hzdyn.pipeline_case"]
	if ph.Count != 4 {
		t.Fatalf("pipeline_case count = %d, want 4", ph.Count)
	}
	for _, bkt := range ph.Buckets {
		if bkt.Le != "4" {
			t.Fatalf("static add used pipeline le=%s (buckets %v), want only 4", bkt.Le, ph.Buckets)
		}
	}
}

// Quantized-sum overflow must be tallied as a fallback.
func TestOverflowFallbackCounter(t *testing.T) {
	const eb = 1e-3
	// q ≈ 3e8 per value: one sum stays in int32 range, the eighth overflows.
	vals := make([]float32, 64)
	for i := range vals {
		vals[i] = 6e5
	}
	c, err := fzlight.Compress(vals, fzlight.Params{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	acc := c
	for k := 2; k < 8; k++ {
		if acc, _, err = Add(acc, c); err != nil {
			t.Fatalf("sum of %d: %v", k, err)
		}
	}
	before := telemetry.Capture()
	if _, _, err := Add(acc, c); err != ErrOverflow {
		t.Fatalf("Add err = %v, want ErrOverflow", err)
	}
	d := telemetry.Capture().Delta(before)
	if got := d.Counters["hzdyn.overflow_fallbacks"]; got != 1 {
		t.Fatalf("overflow_fallbacks = %d, want 1", got)
	}
}
