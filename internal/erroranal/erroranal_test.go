package erroranal

import (
	"math"
	"math/rand"
	"testing"

	"hzccl/internal/cluster"
	"hzccl/internal/core"
)

func TestBounds(t *testing.T) {
	if got := SumBound(Homomorphic, 8, 1e-3); math.Abs(got-8e-3) > 1e-15 {
		t.Fatalf("homomorphic bound %g", got)
	}
	if got := SumBound(DOC, 8, 1e-3); math.Abs(got-15e-3) > 1e-15 {
		t.Fatalf("DOC bound %g", got)
	}
	if SumBound(Uncompressed, 8, 1e-3) != 0 {
		t.Fatal("uncompressed bound should be 0")
	}
	if SumBound(Homomorphic, 0, 1e-3) != 0 || SumBound(DOC, 4, -1) != 0 {
		t.Fatal("degenerate inputs")
	}
	if SumBound(DOC, 1, 1e-3) != 1e-3 {
		t.Fatal("single-operand DOC should be one quantization")
	}
}

func TestMeanSquare(t *testing.T) {
	unit := 1e-6 / 3
	if got := MeanSquareBound(Homomorphic, 4, 1e-3); math.Abs(got-4*unit) > 1e-18 {
		t.Fatalf("hom MSE %g", got)
	}
	if got := MeanSquareBound(DOC, 4, 1e-3); math.Abs(got-7*unit) > 1e-18 {
		t.Fatalf("DOC MSE %g", got)
	}
}

func TestHeadroom(t *testing.T) {
	if HeadroomFactor(1) != 1 {
		t.Fatal("n=1")
	}
	if got := HeadroomFactor(8); math.Abs(got-15.0/8) > 1e-15 {
		t.Fatalf("n=8: %g", got)
	}
	if got := HeadroomFactor(1 << 20); got < 1.99 {
		t.Fatalf("asymptote: %g", got)
	}
}

func TestStrings(t *testing.T) {
	if Homomorphic.String() != "homomorphic" || DOC.String() != "DOC" ||
		Uncompressed.String() != "uncompressed" || Method(9).String() == "" {
		t.Fatal("method strings")
	}
}

// Empirical validation: run the real collectives and check the observed
// worst-case errors against the analytic bounds — and that the
// homomorphic path actually lands inside its tighter budget.
func TestBoundsHoldEmpirically(t *testing.T) {
	const nRanks, n = 8, 1 << 13
	const eb = 1e-3
	fields := make([][]float32, nRanks)
	exact := make([]float64, n)
	for r := range fields {
		rng := rand.New(rand.NewSource(int64(r) + 1))
		f := make([]float32, n)
		for i := range f {
			f[i] = float32(math.Sin(float64(i)*0.01+float64(r)) + rng.NormFloat64()*0.05)
		}
		fields[r] = f
		for i, v := range f {
			exact[i] += float64(v)
		}
	}

	run := func(kind string) float64 {
		c := core.New(core.Options{ErrorBound: eb})
		var worst float64
		res, err := cluster.Run(cluster.Config{Ranks: nRanks}, func(r *cluster.Rank) error {
			flavor := core.FlavorCColl
			if kind == "hz" {
				flavor = core.FlavorHZ
			}
			out, _, err := c.Allreduce(r, flavor, core.AlgoRing, fields[r.ID])
			if err != nil {
				return err
			}
			if r.ID == 0 {
				for i := range out {
					if d := math.Abs(float64(out[i]) - exact[i]); d > worst {
						worst = d
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		_ = res
		return worst
	}

	slack := 1e-5 // float32 ulps
	hzErr := run("hz")
	if bound := SumBound(Homomorphic, nRanks, eb); hzErr > bound+slack {
		t.Errorf("homomorphic error %g exceeds analytic bound %g", hzErr, bound)
	}
	docErr := run("ccoll")
	if bound := SumBound(DOC, nRanks, eb); docErr > bound+slack {
		t.Errorf("DOC error %g exceeds analytic bound %g", docErr, bound)
	}
}
