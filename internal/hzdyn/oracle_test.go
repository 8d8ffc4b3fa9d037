package hzdyn_test

import (
	"testing"

	"hzccl/internal/conformance"
	"hzccl/internal/datasets"
	"hzccl/internal/fzlight"
	"hzccl/internal/hzdyn"
	"hzccl/internal/metrics"
)

// The conformance homomorphic oracle — decompress(sum) equals the sum of
// the reconstructions, the overflow fold takes the DOC fallback — on both
// pipeline-④ paths: the four-case vectors and every dataset.
func TestHomomorphicOracleBothPaths(t *testing.T) {
	for _, kernels := range []bool{true, false} {
		hzdyn.WithPath(kernels, func() {
			o := conformance.HomomorphicOracle{Params: fzlight.Params{ErrorBound: 1e-3}}
			rep, err := o.CheckAllCases(4096)
			if err != nil {
				t.Fatalf("kernels=%v: %v", kernels, err)
			}
			if !rep.OK() {
				t.Fatalf("kernels=%v: %v", kernels, rep.Err())
			}
			for _, name := range datasets.Names() {
				va, vb, err := datasets.Pair(name, 1<<13)
				if err != nil {
					t.Fatal(err)
				}
				o := conformance.HomomorphicOracle{Params: fzlight.Params{ErrorBound: metrics.AbsBound(1e-3, va)}}
				res, err := o.Check(va, vb)
				if err != nil {
					t.Fatalf("kernels=%v %s: %v", kernels, name, err)
				}
				if !res.Report.OK() {
					t.Fatalf("kernels=%v %s: %v", kernels, name, res.Report.Err())
				}
			}
		})
	}
}
