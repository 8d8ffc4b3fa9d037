package metrics

import (
	"math"
	"testing"
)

func TestCompareExact(t *testing.T) {
	a := []float32{0, 1, 2, 3, 4}
	s := Compare(a, a)
	if s.MaxAbs != 0 || s.NRMSE != 0 || !math.IsInf(s.PSNR, 1) {
		t.Fatalf("identical data: %+v", s)
	}
	if s.Min != 0 || s.Max != 4 || s.Range != 4 {
		t.Fatalf("range stats wrong: %+v", s)
	}
}

func TestCompareKnownError(t *testing.T) {
	orig := []float32{0, 10}
	recon := []float32{1, 10} // error (1, 0)
	s := Compare(orig, recon)
	if math.Abs(s.MaxAbs-1) > 1e-12 {
		t.Fatalf("MaxAbs %g", s.MaxAbs)
	}
	if math.Abs(s.MaxRel-0.1) > 1e-12 {
		t.Fatalf("MaxRel %g", s.MaxRel)
	}
	wantRMSE := math.Sqrt(0.5)
	if math.Abs(s.RMSE-wantRMSE) > 1e-12 {
		t.Fatalf("RMSE %g want %g", s.RMSE, wantRMSE)
	}
	if math.Abs(s.NRMSE-wantRMSE/10) > 1e-12 {
		t.Fatalf("NRMSE %g", s.NRMSE)
	}
	wantPSNR := 20 * math.Log10(10/wantRMSE)
	if math.Abs(s.PSNR-wantPSNR) > 1e-9 {
		t.Fatalf("PSNR %g want %g", s.PSNR, wantPSNR)
	}
	// error std: errors are {-1, 0}, mean -0.5, std 0.5, normalized by 10
	if math.Abs(s.ErrStd-0.05) > 1e-12 {
		t.Fatalf("ErrStd %g", s.ErrStd)
	}
}

func TestCompareDegenerate(t *testing.T) {
	if s := Compare(nil, nil); s.N != 0 || s.Mismatched {
		t.Fatal("empty input")
	}
	// A length mismatch must not report N = len(orig): that would read as
	// "compared N values, zero error" when nothing was compared at all.
	if s := Compare([]float32{1}, []float32{1, 2}); s.N != 0 || !s.Mismatched {
		t.Fatalf("length mismatch should yield N=0 and Mismatched, got %+v", s)
	}
	if s := Compare([]float32{1, 2}, []float32{1}); s.N != 0 || !s.Mismatched {
		t.Fatalf("length mismatch should yield N=0 and Mismatched, got %+v", s)
	}
	// constant data with error: zero range, see TestCompareConstantField
	s := Compare([]float32{5, 5}, []float32{5, 6})
	if s.Range != 0 || !math.IsNaN(s.NRMSE) {
		t.Fatalf("constant orig: %+v", s)
	}
}

// TestCompareConstantField locks in the Range == 0 semantics: a constant
// original used to report NRMSE = MaxRel = PSNR = 0 even when the
// reconstruction was wrong — indistinguishable from a terrible PSNR and
// easily misread as perfect relative error. Now the relative metrics are
// NaN (undefined: there is no range to normalize by) whenever there IS
// error, and PSNR is +Inf only for an exact reconstruction.
func TestCompareConstantField(t *testing.T) {
	// Exact reconstruction of a constant field: no error at all.
	s := Compare([]float32{3, 3, 3}, []float32{3, 3, 3})
	if s.Range != 0 || s.RMSE != 0 {
		t.Fatalf("exact constant: %+v", s)
	}
	if !math.IsInf(s.PSNR, 1) {
		t.Fatalf("exact constant PSNR = %v, want +Inf", s.PSNR)
	}
	if s.NRMSE != 0 || s.MaxRel != 0 || s.ErrStd != 0 {
		t.Fatalf("exact constant relative metrics should be 0: %+v", s)
	}

	// Constant field with reconstruction error: the absolute metrics are
	// real, the range-normalized ones undefined.
	s = Compare([]float32{3, 3, 3}, []float32{3, 4, 3})
	if s.MaxAbs != 1 {
		t.Fatalf("MaxAbs %v, want 1", s.MaxAbs)
	}
	if s.RMSE == 0 {
		t.Fatalf("RMSE must be nonzero: %+v", s)
	}
	for name, v := range map[string]float64{
		"NRMSE": s.NRMSE, "MaxRel": s.MaxRel, "ErrStd": s.ErrStd, "PSNR": s.PSNR,
	} {
		if !math.IsNaN(v) {
			t.Fatalf("%s = %v for constant field with error, want NaN", name, v)
		}
	}
}

func TestRatio(t *testing.T) {
	if Ratio(100, 10) != 10 || Ratio(100, 0) != 0 {
		t.Fatal("ratio wrong")
	}
}

func TestGBps(t *testing.T) {
	if GBps(2e9, 2) != 1 {
		t.Fatal("GBps wrong")
	}
	if GBps(100, 0) != 0 || GBps(100, -1) != 0 {
		t.Fatal("degenerate GBps")
	}
}

func TestMinMaxAndAbsBound(t *testing.T) {
	mn, mx := MinMax([]float32{3, -1, 7})
	if mn != -1 || mx != 7 {
		t.Fatalf("minmax %g %g", mn, mx)
	}
	if mn, mx := MinMax(nil); mn != 0 || mx != 0 {
		t.Fatal("empty minmax")
	}
	if b := AbsBound(1e-2, []float32{0, 100}); math.Abs(b-1) > 1e-12 {
		t.Fatalf("AbsBound %g", b)
	}
	// constant data falls back to range 1
	if b := AbsBound(1e-2, []float32{5, 5}); math.Abs(b-1e-2) > 1e-15 {
		t.Fatalf("constant AbsBound %g", b)
	}
}

// A caller that computes Range once and scales it per relative bound gets
// AbsBound's bits, and both keep the original definition (max − min, 1 when
// that is 0) on the inputs where float arithmetic is least obvious.
func TestRangeScalesToAbsBound(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	inputs := map[string][]float32{
		"empty":         nil,
		"constant":      {5, 5, 5},
		"nan first":     {nan, 1, 2},
		"nan later":     {1, nan, 2},
		"+0 then -0":    {0, negZero},
		"-0 then +0":    {negZero, 0},
		"+inf and -inf": {inf, -inf},
		"only +inf":     {inf, inf},
		"finite":        {3, -1, 7},
	}
	for name, d := range inputs {
		mn, mx := MinMax(d)
		want := mx - mn
		if want == 0 {
			want = 1
		}
		if got := Range(d); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: Range %g, want %g", name, got, want)
		}
		for _, rel := range []float64{1e-1, 1e-2, 1e-3, 1e-4, 3e-5} {
			if a, b := rel*Range(d), AbsBound(rel, d); math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("%s rel %g: rel·Range %g (%#x), AbsBound %g (%#x)", name, rel, a, math.Float64bits(a), b, math.Float64bits(b))
			}
		}
	}
}

func TestErrAutocorr(t *testing.T) {
	n := 1024
	orig := make([]float32, n)
	stair := make([]float32, n)
	noise := make([]float32, n)
	for i := range orig {
		orig[i] = float32(i) * 0.01
		stair[i] = float32(i/64*64) * 0.01 // constant-block reconstruction
		if i%2 == 0 {
			noise[i] = orig[i] + 0.005
		} else {
			noise[i] = orig[i] - 0.005
		}
	}
	if ac := ErrAutocorr(orig, stair); ac < 0.8 {
		t.Errorf("staircase autocorrelation %g, want near 1", ac)
	}
	if ac := ErrAutocorr(orig, noise); ac > -0.5 {
		t.Errorf("alternating noise autocorrelation %g, want near -1", ac)
	}
	if ErrAutocorr(nil, nil) != 0 || ErrAutocorr(orig, orig[:10]) != 0 {
		t.Error("degenerate inputs")
	}
	if ErrAutocorr(orig, orig) != 0 {
		t.Error("zero error should give zero autocorrelation")
	}
}
