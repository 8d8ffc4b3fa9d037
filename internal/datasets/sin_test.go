package datasets

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"testing"

	"hzccl/internal/simd"
	"hzccl/internal/simd/simdtest"
)

// TestMain runs the package's tests once with the sin kernel and once with
// math.Sin alone, so every generator test and golden checksum holds on both
// paths. Benchmarks and fuzzing sessions run once, as dispatched.
func TestMain(m *testing.M) {
	os.Exit(simdtest.Main(m, "datasets", &level, simd.AVX512, simd.Portable))
}

// A -v run of this test logs the sin path this CPU selects, so a green run
// on a machine without AVX-512 says it did not run the kernel.
func TestSinLevelReportsThePath(t *testing.T) {
	t.Logf("this CPU's level is %v (the sin kernel runs at AVX-512); the suite is running at %v", simd.CPU, level)
	if level > simd.CPU {
		t.Fatalf("running at %v above the CPU's %v", level, simd.CPU)
	}
}

// checkSins runs sinInPlace over a copy of xs and requires math.Sin's bits
// in every element.
func checkSins(t *testing.T, what string, xs []float64) {
	t.Helper()
	got := append([]float64(nil), xs...)
	sinInPlace(got)
	for i, x := range xs {
		if want := math.Sin(x); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%s: sin(%v = %#x) at %d is %#x, math.Sin's %#x", what, x, math.Float64bits(x), i, math.Float64bits(got[i]), math.Float64bits(want))
		}
	}
}

// Random bit patterns at every binary exponent the kernel takes, from the
// subnormals up to 2^29, both signs.
func TestSinEveryExponent(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	xs := make([]float64, 0, 256)
	for e := uint64(0); e < 1023+29; e++ {
		xs = xs[:0]
		for k := 0; k < cap(xs); k++ {
			bits := e<<52 | r.Uint64()&(1<<52-1) | uint64(k&1)<<63
			xs = append(xs, math.Float64frombits(bits))
		}
		checkSins(t, "exponent", xs)
	}
}

// Multiples of π/4 and a few ulps either side: the octant boundaries, where
// the reduction cancels most of x and an odd octant maps up.
func TestSinOctantEdges(t *testing.T) {
	var xs []float64
	for _, k := range []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 255, 1000, 12345, 1 << 20, 1<<29 - 3, 1 << 29, 683565275} {
		c := k * (math.Pi / 4)
		for _, x0 := range []float64{c, -c} {
			x := x0
			for u := 0; u < 5; u++ {
				xs = append(xs, x)
				x = math.Nextafter(x, math.Inf(1))
			}
			x = x0
			for u := 0; u < 5; u++ {
				x = math.Nextafter(x, math.Inf(-1))
				xs = append(xs, x)
			}
		}
	}
	checkSins(t, "octant edge", xs)
}

// ±0, the subnormals, the reduction threshold 2^29 and its neighbours, and
// the values math.Sin handles on its own (NaN, ±Inf, huge), at every lane
// position of a run: each one stops the kernel, which must resume behind
// its eight.
func TestSinSpecialValues(t *testing.T) {
	const t29 = 1 << 29
	specials := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(1<<52 - 1), math.Float64frombits(1 << 52),
		t29 - 1, t29 + 1, math.Nextafter(t29, 0), t29, math.Nextafter(t29, math.Inf(1)),
		-t29, -(t29 - 1), math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -3.5e15,
		math.Float64frombits(0x7ff8000000000123), // a NaN with a payload
	}
	base := make([]float64, 40)
	for i := range base {
		base[i] = 0.37 * float64(i-20)
	}
	checkSins(t, "specials", specials)
	for _, s := range specials {
		for pos := range base {
			for n := pos + 1; n <= len(base); n += 7 {
				xs := append([]float64(nil), base[:n]...)
				xs[pos] = s
				checkSins(t, "special in a run", xs)
			}
		}
	}
}

// The generators' arguments: long ramps like carrier·t + phase.
func TestSinRamps(t *testing.T) {
	xs := make([]float64, 3*sinRun+5)
	for _, step := range []float64{2 * math.Pi / 173.3, 1e-6, 0.7853981633974483, 3.1} {
		for i := range xs {
			xs[i] = step*float64(i) + 0.25
		}
		checkSins(t, "ramp", xs)
	}
}

// FuzzSin holds sinInPlace to math.Sin on any run of float64 bit patterns.
func FuzzSin(f *testing.F) {
	seed := func(xs ...float64) []byte {
		b := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		return b
	}
	f.Add(seed(0.5, 1, 2, 3, 4, 5, 6, 7, 8))
	f.Add(seed(1, 2, 3, math.NaN(), 5, 6, 7, 8, 9, 1e300))
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := make([]float64, len(data)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		checkSins(t, "fuzz", xs)
	})
}

// BenchmarkSin reports ns per value for sinInPlace over a run of
// generator-like arguments, at the CPU's level.
func BenchmarkSin(b *testing.B) {
	xs := make([]float64, sinRun)
	for i := 0; i < b.N; i++ {
		for k := range xs {
			xs[k] = 0.0123*float64(k) + 1
		}
		sinInPlace(xs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sinRun), "ns/value")
}
