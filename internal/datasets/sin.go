package datasets

import (
	"math"

	"hzccl/internal/simd"
)

// sinRun is how many sin arguments a generator gathers before it
// transforms them: 4 KiB of float64 on its stack per series.
const sinRun = 512

// level selects sinInPlace's kernel: the CPU's, and only the package's
// tests ever lower it.
var level = simd.CPU

// sinInPlace replaces every xs[i] by math.Sin(xs[i]), bit for bit. The
// kernel of sin_amd64.s takes eight values at a time and stops in front of
// the first eight it may not take (an |x| ≥ 2^29, a NaN or an infinity,
// where math.Sin leaves the Cody–Waite reduction); math.Sin takes those
// eight and the tail.
func sinInPlace(xs []float64) {
	for len(xs) > 0 {
		xs = xs[sinVector(xs):]
		k := min(len(xs), 8)
		for i, x := range xs[:k] {
			xs[i] = math.Sin(x)
		}
		xs = xs[k:]
	}
}
