// Package metrics computes the data-quality and performance metrics used
// throughout the hZCCL evaluation: NRMSE, PSNR, max absolute/relative
// error, error standard deviation, compression ratio and throughput.
package metrics

import (
	"math"

	"hzccl/internal/simd"
)

// level selects Range's kernel: the CPU's, and only the package's tests
// ever lower it.
var level = simd.CPU

// ErrorStats summarizes the reconstruction error of recon against orig.
type ErrorStats struct {
	N int
	// Mismatched is set when the inputs had different lengths and the
	// comparison was skipped; all other fields are zero in that case.
	Mismatched bool
	Min        float64 // min of the original data
	Max        float64 // max of the original data
	Range      float64 // Max - Min
	MaxAbs     float64 // max_i |orig_i - recon_i|
	MaxRel     float64 // MaxAbs / Range
	MSE        float64
	RMSE       float64
	NRMSE      float64 // RMSE / Range
	PSNR       float64 // 20·log10(Range/RMSE)
	ErrStd     float64 // standard deviation of the error, normalized by Range
}

// Compare computes ErrorStats for a reconstruction. Both slices must have
// the same length: on a length mismatch the comparison is skipped and the
// result is a zero ErrorStats (N = 0) with Mismatched set, so callers
// cannot misread a skipped comparison as a perfect one over len(orig)
// values. An empty input yields a zero value.
func Compare(orig, recon []float32) ErrorStats {
	var s ErrorStats
	if len(orig) != len(recon) {
		s.Mismatched = true
		return s
	}
	s.N = len(orig)
	if len(orig) == 0 {
		return s
	}
	s.Min, s.Max = float64(orig[0]), float64(orig[0])
	var sumErr, sumSq float64
	for i := range orig {
		o := float64(orig[i])
		if o < s.Min {
			s.Min = o
		}
		if o > s.Max {
			s.Max = o
		}
		e := o - float64(recon[i])
		if a := math.Abs(e); a > s.MaxAbs {
			s.MaxAbs = a
		}
		sumErr += e
		sumSq += e * e
	}
	n := float64(s.N)
	s.Range = s.Max - s.Min
	s.MSE = sumSq / n
	s.RMSE = math.Sqrt(s.MSE)
	mean := sumErr / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	std := math.Sqrt(variance)
	switch {
	case s.Range > 0:
		s.NRMSE = s.RMSE / s.Range
		s.MaxRel = s.MaxAbs / s.Range
		s.ErrStd = std / s.Range
		if s.RMSE > 0 {
			s.PSNR = 20 * math.Log10(s.Range/s.RMSE)
		} else {
			s.PSNR = math.Inf(1)
		}
	case s.RMSE == 0:
		// A constant field reconstructed exactly: no error, so the
		// range-normalized metrics are legitimately zero and PSNR is
		// unbounded.
		s.PSNR = math.Inf(1)
	default:
		// A constant field reconstructed with error: there is no range to
		// normalize by, so the relative metrics are undefined — NaN, not
		// the perfect-looking 0 this case used to report. Callers print
		// them as "n/a"; the absolute metrics (MaxAbs, RMSE) still tell
		// the real story.
		s.NRMSE = math.NaN()
		s.MaxRel = math.NaN()
		s.ErrStd = math.NaN()
		s.PSNR = math.NaN()
	}
	return s
}

// Ratio returns the compression ratio origBytes/compBytes (0 if compBytes
// is zero).
func Ratio(origBytes, compBytes int) float64 {
	if compBytes == 0 {
		return 0
	}
	return float64(origBytes) / float64(compBytes)
}

// GBps converts bytes processed in the given number of seconds to GB/s
// (decimal gigabytes, as in the paper).
func GBps(bytes int, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(bytes) / seconds / 1e9
}

// MinMax returns the minimum and maximum of the data (0,0 for empty input).
func MinMax(data []float32) (float64, float64) {
	if len(data) == 0 {
		return 0, 0
	}
	mn, mx := float64(data[0]), float64(data[0])
	for _, v := range data {
		f := float64(v)
		if f < mn {
			mn = f
		}
		if f > mx {
			mx = f
		}
	}
	return mn, mx
}

// Range returns the denominator of a relative error bound for the given
// data: max − min, or 1 when that is 0 (constant or empty data). One pass
// over the data serves every relative bound: AbsBound(rel, data) is
// rel · Range(data), bit for bit. It is MinMax's max − min, bit for bit:
// see minMax32.
func Range(data []float32) float64 {
	if len(data) == 0 {
		return 1
	}
	mn, mx := minMax32(data)
	if r := float64(mx) - float64(mn); r != 0 {
		return r
	}
	return 1
}

// minMax32 is MinMax over independent lanes: the 32 of the kernel of
// range_amd64.s, where the CPU has one, each starting at data[0] and
// taking a value only when it is strictly below (above) the lane's, as
// MinMax does; then the lanes fold by the same rule, and the floats the
// kernel left run through MinMax's loop. Comparing float32s is comparing
// their float64 conversions, so the values are MinMax's: a leading NaN
// stays in every lane, a later NaN enters none. Only the sign of a zero
// extremum may differ (MinMax keeps the first zero it meets, the lanes
// the first in lane order), which max − min cannot show: x − ±0 and ±0 − y
// do not depend on the zero's sign for nonzero x and y, and 0 − 0 makes
// Range 1.
func minMax32(data []float32) (mn, mx float32) {
	var lo, hi [8]float32
	for k := range lo {
		lo[k], hi[k] = data[0], data[0]
	}
	data = data[minMaxVector(data, &lo, &hi):]
	mn, mx = lo[0], hi[0]
	for k := 1; k < len(lo); k++ {
		if lo[k] < mn {
			mn = lo[k]
		}
		if hi[k] > mx {
			mx = hi[k]
		}
	}
	for _, v := range data {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
}

// AbsBound converts a relative error bound to an absolute one for the
// given data: abs = rel · (max − min). The paper's Tables III–VI sweep
// relative bounds 1e-1..1e-4.
func AbsBound(rel float64, data []float32) float64 { return rel * Range(data) }

// ErrAutocorr returns the lag-1 autocorrelation of the reconstruction
// error. Quantization noise decorrelates (values near 0); block-constant
// schemes such as SZx leave staircase artifacts whose errors are strongly
// correlated across neighbours (values near 1) — the quality degradation
// the hZCCL paper cites when rejecting SZx's pipeline (§III-B1).
func ErrAutocorr(orig, recon []float32) float64 {
	n := len(orig)
	if n < 2 || n != len(recon) {
		return 0
	}
	errs := make([]float64, n)
	mean := 0.0
	for i := range orig {
		errs[i] = float64(orig[i]) - float64(recon[i])
		mean += errs[i]
	}
	mean /= float64(n)
	var num, den float64
	for i := 0; i < n; i++ {
		d := errs[i] - mean
		den += d * d
		if i+1 < n {
			num += d * (errs[i+1] - mean)
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}
