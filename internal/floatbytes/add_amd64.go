package floatbytes

import "hzccl/internal/simd"

// The float add kernel of add_amd64.s: dst[i] += src[i] for n floats, n a
// positive multiple of 32, eight lanes at a time.

//go:noescape
func addRunAVX2(dst *float32, src *byte, n int)

// addRun caps the floats handed to one kernel call: assembly cannot be
// preempted, and 8192 floats keep a call to a few microseconds.
const addRun = 1 << 13

// addVector adds the leading multiple of 32 of the len(dst) floats with the
// kernel, addRun at a time, and returns how many it added: none below
// simd.AVX2. len(src) must be 4·len(dst).
func addVector(dst []float32, src []byte) int {
	if level < simd.AVX2 {
		return 0
	}
	n := len(dst) &^ 31
	for i := 0; i < n; i += addRun {
		addRunAVX2(&dst[i], &src[4*i], min(n-i, addRun))
	}
	return n
}
