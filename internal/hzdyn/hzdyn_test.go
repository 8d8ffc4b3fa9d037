package hzdyn

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hzccl/internal/fzlight"
)

func smooth(n int, seed int64, scale float64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	v := 0.0
	for i := range out {
		v += rng.NormFloat64() * 0.01
		out[i] = float32(scale * (math.Sin(float64(i)*0.02) + v))
	}
	return out
}

func compress(t *testing.T, data []float32, p fzlight.Params) []byte {
	t.Helper()
	c, err := fzlight.Compress(data, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func decompress(t *testing.T, c []byte) []float32 {
	t.Helper()
	d, err := fzlight.Decompress(c)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// The central homomorphism theorem: decompressing the homomorphic sum is
// bit-identical to adding the two decompressed streams in the quantized
// domain. We verify value-level equality of 2eb·(qa+qb) against the
// quantized sum, which is exact because both sides compute the same
// integer before one float multiplication.
func TestHomomorphismExact(t *testing.T) {
	for _, n := range []int{0, 1, 31, 32, 1000, 4097} {
		for _, threads := range []int{1, 4} {
			a := smooth(n, 10+int64(n), 1)
			b := smooth(n, 20+int64(n), 2)
			p := fzlight.Params{ErrorBound: 1e-3, Threads: threads}
			ca := compress(t, a, p)
			cb := compress(t, b, p)
			sum, stats, err := Add(ca, cb)
			if err != nil {
				t.Fatalf("n=%d threads=%d: %v", n, threads, err)
			}
			got := decompress(t, sum)
			da := decompress(t, ca)
			db := decompress(t, cb)
			for i := range got {
				// Recover the quantized integers from the reconstructions
				// (they are exact up to float32 rounding, so Round restores
				// them), then compare in the integer domain.
				qa := math.Round(float64(da[i]) / (2 * 1e-3))
				qb := math.Round(float64(db[i]) / (2 * 1e-3))
				want := float32(2 * 1e-3 * (qa + qb))
				if got[i] != want {
					t.Fatalf("n=%d i=%d: got %v want %v", n, i, got[i], want)
				}
			}
			if n > 0 && stats.Blocks == 0 {
				t.Fatal("no blocks counted")
			}
		}
	}
}

// Against the DOC reference: Add(C(a), C(b)) must decompress to the same
// values as compress(decompress(C(a)) + decompress(C(b))) with zero
// additional quantization error — in fact the homomorphic result is
// *better* because DOC re-quantizes.
func TestNoAdditionalError(t *testing.T) {
	a := smooth(5000, 1, 1)
	b := smooth(5000, 2, 1)
	eb := 1e-3
	p := fzlight.Params{ErrorBound: eb, Threads: 3}
	ca := compress(t, a, p)
	cb := compress(t, b, p)
	sum, _, err := Add(ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	got := decompress(t, sum)
	for i := range got {
		exact := float64(a[i]) + float64(b[i])
		if d := math.Abs(float64(got[i]) - exact); d > 2*eb+1e-6 {
			t.Fatalf("i=%d: homomorphic sum error %g exceeds 2·eb", i, d)
		}
	}
}

func TestStaticAddMatchesDynamic(t *testing.T) {
	a := smooth(3000, 3, 1)
	b := smooth(3000, 4, 5)
	p := fzlight.Params{ErrorBound: 1e-2, Threads: 2}
	ca := compress(t, a, p)
	cb := compress(t, b, p)
	dyn, _, err := Add(ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	st, err := StaticAdd(ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dyn, st) {
		t.Fatal("dynamic and static homomorphic adds produced different streams")
	}
}

func TestCommutativity(t *testing.T) {
	a := smooth(2000, 5, 1)
	b := smooth(2000, 6, 3)
	p := fzlight.Params{ErrorBound: 1e-3}
	ca := compress(t, a, p)
	cb := compress(t, b, p)
	ab, _, err := Add(ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	ba, _, err := Add(cb, ca)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, ba) {
		t.Fatal("homomorphic add is not commutative")
	}
}

func TestAssociativityInValues(t *testing.T) {
	p := fzlight.Params{ErrorBound: 1e-3, Threads: 2}
	a := compress(t, smooth(1500, 7, 1), p)
	b := compress(t, smooth(1500, 8, 2), p)
	c := compress(t, smooth(1500, 9, 3), p)
	ab, _, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	abc1, _, err := Add(ab, c)
	if err != nil {
		t.Fatal(err)
	}
	bc, _, err := Add(b, c)
	if err != nil {
		t.Fatal(err)
	}
	abc2, _, err := Add(a, bc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(abc1, abc2) {
		t.Fatal("homomorphic add is not associative")
	}
}

func TestPipelineSelection(t *testing.T) {
	n := 4096
	zero := make([]float32, n)
	flat := make([]float32, n) // constant after quantization
	for i := range flat {
		flat[i] = 7
	}
	wavy := smooth(n, 11, 100) // non-constant blocks at eb=1e-4
	p := fzlight.Params{ErrorBound: 1e-4}

	cz := compress(t, zero, p)
	cf := compress(t, flat, p)
	cw := compress(t, wavy, p)

	_, st, err := Add(cz, cf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pipeline[PipelineBothConstant] != st.Blocks {
		t.Fatalf("constant+constant should be all pipeline 1, got %+v", st)
	}
	_, st, err = Add(cz, cw)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fraction(PipelineLeftConstant) < 0.9 {
		t.Fatalf("zero+wavy should be mostly pipeline 2, got %+v", st)
	}
	_, st, err = Add(cw, cz)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fraction(PipelineRightConstant) < 0.9 {
		t.Fatalf("wavy+zero should be mostly pipeline 3, got %+v", st)
	}
	_, st, err = Add(cw, cw)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fraction(PipelineBothEncoded) < 0.9 {
		t.Fatalf("wavy+wavy should be mostly pipeline 4, got %+v", st)
	}
}

func TestGeometryMismatch(t *testing.T) {
	a := smooth(1000, 12, 1)
	ca := compress(t, a, fzlight.Params{ErrorBound: 1e-3})
	cases := [][]byte{
		compress(t, a, fzlight.Params{ErrorBound: 1e-4}),             // eb differs
		compress(t, a, fzlight.Params{ErrorBound: 1e-3, Threads: 2}), // chunks differ
		compress(t, a, fzlight.Params{ErrorBound: 1e-3, BlockSize: 64}),
		compress(t, a[:999], fzlight.Params{ErrorBound: 1e-3}), // length differs
	}
	for i, cb := range cases {
		if _, _, err := Add(ca, cb); !errors.Is(err, ErrGeometry) {
			t.Errorf("case %d: want ErrGeometry, got %v", i, err)
		}
	}
}

func TestCorruptOperand(t *testing.T) {
	a := compress(t, smooth(500, 13, 1), fzlight.Params{ErrorBound: 1e-3})
	if _, _, err := Add(a[:8], a); err == nil {
		t.Error("truncated left operand accepted")
	}
	if _, _, err := Add(a, a[:8]); err == nil {
		t.Error("truncated right operand accepted")
	}
}

// The 2D Lorenzo predictor is linear, so version-2 containers must be
// exactly as homomorphic as 1D ones.
func TestHomomorphicAdd2D(t *testing.T) {
	h, w := 64, 48
	a := make([]float32, h*w)
	b := make([]float32, h*w)
	for i := 0; i < h; i++ {
		for j := 0; j < w; j++ {
			a[i*w+j] = float32(math.Sin(float64(i)*0.1) * math.Cos(float64(j)*0.1) * 5)
			b[i*w+j] = float32(float64(i)*0.02 + float64(j)*0.03)
		}
	}
	p := fzlight.Params{ErrorBound: 1e-3, Threads: 3}
	ca, err := fzlight.Compress2D(a, h, w, p)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := fzlight.Compress2D(b, h, w, p)
	if err != nil {
		t.Fatal(err)
	}
	sum, st, err := Add(ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	if st.Blocks == 0 {
		t.Fatal("no blocks")
	}
	got := decompress(t, sum)
	da, db := decompress(t, ca), decompress(t, cb)
	for i := range got {
		want := float64(da[i]) + float64(db[i])
		if d := math.Abs(float64(got[i]) - want); d > 1e-6*math.Abs(want)+1e-7 {
			t.Fatalf("2D homomorphism broken at %d: got %v want %v", i, got[i], want)
		}
	}
	// 1D and 2D containers of the same data must NOT mix.
	if _, _, err := Add(ca, compress(t, a, p)); err == nil {
		t.Fatal("mixed 1D/2D geometry accepted")
	}
}

func TestRepeatedAddsMatchDirectSum(t *testing.T) {
	// Simulates what a ring reduction does: fold K streams pairwise.
	const K = 16
	n := 2048
	eb := 1e-3
	p := fzlight.Params{ErrorBound: eb, Threads: 2}
	exact := make([]float64, n)
	var acc []byte
	for k := 0; k < K; k++ {
		data := smooth(n, 100+int64(k), 1)
		for i, v := range data {
			exact[i] += float64(v)
		}
		c := compress(t, data, p)
		if acc == nil {
			acc = c
			continue
		}
		var err error
		acc, _, err = Add(acc, c)
		if err != nil {
			t.Fatal(err)
		}
	}
	got := decompress(t, acc)
	for i := range got {
		if d := math.Abs(float64(got[i]) - exact[i]); d > K*eb+1e-5 {
			t.Fatalf("i=%d: folded sum error %g exceeds K·eb=%g", i, d, K*eb)
		}
	}
}

// Property-based: homomorphic addition equals value-wise addition of the
// reconstructions, for arbitrary in-range inputs.
func TestPropertyHomomorphism(t *testing.T) {
	f := func(raw []float32, seed uint8) bool {
		clean := make([]float32, 0, len(raw))
		for _, v := range raw {
			f64 := float64(v)
			if math.IsNaN(f64) || math.IsInf(f64, 0) || math.Abs(f64) > 1e3 {
				continue
			}
			clean = append(clean, v)
		}
		other := make([]float32, len(clean))
		rng := rand.New(rand.NewSource(int64(seed)))
		for i := range other {
			other[i] = float32(rng.NormFloat64() * 10)
		}
		p := fzlight.Params{ErrorBound: 1e-2, Threads: 1 + int(seed%3)}
		ca, err := fzlight.Compress(clean, p)
		if err != nil {
			return false
		}
		cb, err := fzlight.Compress(other, p)
		if err != nil {
			return false
		}
		sum, _, err := Add(ca, cb)
		if err != nil {
			return false
		}
		got, err := fzlight.Decompress(sum)
		if err != nil {
			return false
		}
		da, _ := fzlight.Decompress(ca)
		db, _ := fzlight.Decompress(cb)
		for i := range got {
			want := float64(da[i]) + float64(db[i])
			if math.Abs(float64(got[i])-want) > 1e-6*math.Abs(want)+1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
