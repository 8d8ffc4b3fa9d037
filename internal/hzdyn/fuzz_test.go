package hzdyn

import (
	"errors"
	"math"
	"testing"

	"hzccl/internal/floatbytes"
	"hzccl/internal/fzlight"
)

// FuzzAdd feeds arbitrary byte pairs to the homomorphic reducer: it must
// never panic, must refuse two valid containers of different geometry with
// ErrGeometry and any container with a flag set, and whenever it succeeds
// the result must itself decompress.
func FuzzAdd(f *testing.F) {
	data := []float32{1, -2, 3, -4, 5, -6, 7, -8}
	a, err := fzlight.Compress(data, fzlight.Params{ErrorBound: 1e-2})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(a, a)
	f.Add(a, []byte{})
	f.Add([]byte("FZL1junk"), a)
	flagged := func(comp []byte) bool { return len(comp) > 5 && comp[5] != 0 }
	f.Fuzz(func(t *testing.T, x, y []byte) {
		sum, _, err := Add(x, y)
		hx, errX := fzlight.ParseHeader(x)
		hy, errY := fzlight.ParseHeader(y)
		if errX == nil && errY == nil && hx != hy && !errors.Is(err, ErrGeometry) {
			t.Fatalf("headers %+v and %+v differ: got %v, want ErrGeometry", hx, hy, err)
		}
		if err != nil {
			return
		}
		if flagged(x) || flagged(y) {
			t.Fatal("Add accepted a container with a flag set")
		}
		if _, err := fzlight.Decompress(sum); err != nil {
			t.Fatalf("Add succeeded but its output does not decompress: %v", err)
		}
	})
}

// FuzzHomomorphism checks the central invariant on arbitrary float inputs:
// the homomorphic sum equals the sum of reconstructions.
func FuzzHomomorphism(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 64, 64}, []byte{0, 0, 0, 64, 0, 0, 128, 64})
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		va := floatbytes.Floats(rawA)
		vb := floatbytes.Floats(rawB)
		n := len(va)
		if len(vb) < n {
			n = len(vb)
		}
		clean := func(v []float32) []float32 {
			out := make([]float32, 0, n)
			for _, x := range v[:n] {
				f64 := float64(x)
				if math.IsNaN(f64) || math.IsInf(f64, 0) || math.Abs(f64) > 1e4 {
					x = 0
				}
				out = append(out, x)
			}
			return out
		}
		a, b := clean(va), clean(vb)
		p := fzlight.Params{ErrorBound: 1e-2}
		ca, err := fzlight.Compress(a, p)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := fzlight.Compress(b, p)
		if err != nil {
			t.Fatal(err)
		}
		sum, _, err := Add(ca, cb)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fzlight.Decompress(sum)
		if err != nil {
			t.Fatal(err)
		}
		da, _ := fzlight.Decompress(ca)
		db, _ := fzlight.Decompress(cb)
		for i := range got {
			want := float64(da[i]) + float64(db[i])
			// Tolerance scales with the operand magnitudes: under
			// cancellation the homomorphic sum (exact in the quantized
			// domain) is *more* accurate than adding the two float32
			// reconstructions, which each carry an ulp of their own size.
			ulps := (math.Abs(float64(da[i])) + math.Abs(float64(db[i]))) * math.Pow(2, -22)
			if d := math.Abs(float64(got[i]) - want); d > ulps+1e-6 {
				t.Fatalf("homomorphism violated at %d: got %v want %v", i, got[i], want)
			}
		}
	})
}
