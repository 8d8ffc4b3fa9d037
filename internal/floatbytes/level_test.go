package floatbytes

import (
	"os"
	"testing"

	"hzccl/internal/simd"
	"hzccl/internal/simd/simdtest"
)

// TestMain runs the package's tests once with the add kernel and once with
// the word-wise loop alone, so TestSpecialPairs, TestWordwiseMatchesScalar
// and FuzzAddInto's seeds pin the kernel against the scalar reference.
// Benchmarks and fuzzing sessions run once, as dispatched.
func TestMain(m *testing.M) {
	os.Exit(simdtest.Main(m, "floatbytes", &level, simd.AVX2, simd.Portable))
}

// A -v run of this test logs the add path this CPU selects, so a green run
// on a machine without AVX2 says it did not run the kernel.
func TestAddLevelReportsThePath(t *testing.T) {
	t.Logf("this CPU's level is %v (the add kernel runs from AVX2 up); the suite is running at %v", simd.CPU, level)
	if level > simd.CPU {
		t.Fatalf("running at %v above the CPU's %v", level, simd.CPU)
	}
}
