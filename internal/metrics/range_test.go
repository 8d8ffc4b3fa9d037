package metrics

import (
	"math"
	"math/rand"
	"os"
	"testing"

	"hzccl/internal/simd"
	"hzccl/internal/simd/simdtest"
)

// TestMain runs the package's tests once with Range's kernel and once
// without it. Benchmarks run once, as dispatched.
func TestMain(m *testing.M) {
	os.Exit(simdtest.Main(m, "metrics", &level, simd.AVX2, simd.Portable))
}

// MinMax's own rule, pinned where float comparison is least obvious: a
// leading NaN is the answer, a later NaN is skipped, and of two zeros the
// first one met stays.
func TestMinMaxSpecialValues(t *testing.T) {
	nan, negZero := float32(math.NaN()), float32(math.Copysign(0, -1))
	cases := []struct {
		name   string
		data   []float32
		mn, mx float64
	}{
		{"nan first", []float32{nan, -3, 4}, math.NaN(), math.NaN()},
		{"nan later", []float32{1, nan, -3, nan, 4}, -3, 4},
		{"nan last", []float32{1, 2, nan}, 1, 2},
		{"+0 then -0", []float32{0, negZero}, 0, 0},
		{"-0 then +0", []float32{negZero, 0}, math.Copysign(0, -1), math.Copysign(0, -1)},
		{"-0 below 1", []float32{1, negZero, 0, 2}, math.Copysign(0, -1), 2},
		{"+0 above -1", []float32{-1, 0, negZero}, -1, 0},
		{"infinities", []float32{2, float32(math.Inf(-1)), float32(math.Inf(1))}, math.Inf(-1), math.Inf(1)},
	}
	for _, c := range cases {
		same := func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
		}
		mn, mx := MinMax(c.data)
		if !same(mn, c.mn) || !same(mx, c.mx) {
			t.Errorf("%s: MinMax (%v, %v) bits (%#x, %#x), want (%v, %v)", c.name, mn, mx,
				math.Float64bits(mn), math.Float64bits(mx), c.mn, c.mx)
		}
	}
}

// Range is MinMax's max − min (1 when that is 0), bit for bit, on runs long
// enough for the kernel and its tail, with NaNs, zeros of both signs and
// infinities at random places, a NaN first among them.
func TestRangeMatchesMinMax(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	specials := []float32{float32(math.NaN()), 0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32, -math.SmallestNonzeroFloat32}
	for _, n := range []int{1, 7, 31, 32, 33, 63, 64, 65, 100, 1000, 4096, 70001} {
		for trial := 0; trial < 40; trial++ {
			d := make([]float32, n)
			for i := range d {
				d[i] = float32(r.NormFloat64() * 100)
			}
			switch trial % 4 {
			case 1: // zeros only: the extremum may be a zero of either sign
				for i := range d {
					d[i] = specials[1+r.Intn(2)]
				}
			case 2, 3:
				for k := 0; k < 1+r.Intn(4); k++ {
					d[r.Intn(n)] = specials[r.Intn(len(specials))]
				}
			}
			if trial%8 == 3 {
				d[0] = specials[r.Intn(len(specials))]
			}
			mn, mx := MinMax(d)
			want := mx - mn
			if want == 0 {
				want = 1
			}
			if got := Range(d); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n %d trial %d: Range %v (%#x), MinMax gives %v (%#x)", n, trial, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// BenchmarkRange reports Range's throughput over a job-sized input at the
// CPU's level.
func BenchmarkRange(b *testing.B) {
	d := make([]float32, 2<<20)
	for i := range d {
		d[i] = float32(120*math.Sin(float64(i)*1e-4) + 160)
	}
	b.SetBytes(int64(4 * len(d)))
	for i := 0; i < b.N; i++ {
		Range(d)
	}
}
