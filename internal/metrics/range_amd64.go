package metrics

import "hzccl/internal/simd"

// minMaxRunAVX2 folds n floats at data, n a positive multiple of 32, into
// the eight lanes of lo and hi: lo[k] = v wherever v < lo[k] and hi[k] = v
// wherever v > hi[k], a NaN v changing neither.
//
//go:noescape
func minMaxRunAVX2(data *float32, n int, lo, hi *[8]float32)

// rangeRun caps the floats handed to one kernel call: assembly cannot be
// preempted, and 64 Ki floats keep a call to a few microseconds.
const rangeRun = 1 << 16

// minMaxVector folds the leading multiple of 32 of data into lo and hi with
// the kernel and returns how many floats it took: none below simd.AVX2.
func minMaxVector(data []float32, lo, hi *[8]float32) int {
	if level < simd.AVX2 {
		return 0
	}
	n := len(data) &^ 31
	for i := 0; i < n; i += rangeRun {
		minMaxRunAVX2(&data[i], min(n-i, rangeRun), lo, hi)
	}
	return n
}
