package datasets

import "hzccl/internal/simd"

// sinRunAVX512 replaces xs[i] by math.Sin(xs[i]) for i < n, n a positive
// multiple of 8, eight lanes at a time, and returns how many it replaced:
// it stops in front of the first eight with a lane it may not take.
//
//go:noescape
func sinRunAVX512(xs *float64, n int) int

// sinVector runs the kernel over the leading multiple of 8 of xs and
// returns how many values it replaced: none below simd.AVX512. It takes
// at most a run at a time, since assembly cannot be preempted.
func sinVector(xs []float64) int {
	if level < simd.AVX512 {
		return 0
	}
	n, done := len(xs)&^7, 0
	for done < n {
		m := min(n-done, sinRun)
		k := sinRunAVX512(&xs[done], m)
		done += k
		if k < m {
			break
		}
	}
	return done
}
