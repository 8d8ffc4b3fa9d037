package fzlight_test

// Both pipeline-④ paths — the SIMD add kernel and the portable Go body —
// under whole-container tests: hzdyn's homomorphic add on every dataset and
// the conformance homomorphic oracle. They live here, beside the one
// switch between the paths (WithPath in export_test.go).

import (
	"bytes"
	"fmt"
	"testing"

	"hzccl/internal/conformance"
	"hzccl/internal/datasets"
	"hzccl/internal/fzlight"
	"hzccl/internal/hzdyn"
	"hzccl/internal/metrics"
	"hzccl/internal/simd"
)

// Every dataset, at sizes with and without a tail block, single- and
// multi-chunk, dynamic and static, then folded onto itself three times (the
// widths grow by three bits): the two paths must produce the same container and
// the same pipeline tallies. Each dataset and each size × thread count is its
// own subtest, so a failure names its case and -run can replay just that one.
func TestAddPathsIdentical(t *testing.T) {
	for _, name := range datasets.Names() {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{32, 95, 4096, 1<<14 + 7} {
				for _, threads := range []int{1, 3} {
					t.Run(fmt.Sprintf("n=%d/threads=%d", n, threads), func(t *testing.T) {
						addPathsIdentical(t, name, n, threads)
					})
				}
			}
		})
	}
}

func addPathsIdentical(t *testing.T, name string, n, threads int) {
	va, vb, err := datasets.Pair(name, n)
	if err != nil {
		t.Fatal(err)
	}
	p := fzlight.Params{ErrorBound: metrics.AbsBound(1e-3, va), Threads: threads}
	ca, err := fzlight.Compress(va, p)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := fzlight.Compress(vb, p)
	if err != nil {
		t.Fatal(err)
	}
	var sums [2][]byte
	var stats [2]hzdyn.Stats
	for k, l := range []simd.Level{simd.Portable, fzlight.Dispatched()} {
		fzlight.WithPath(l, func() {
			sum, st, err := hzdyn.Add(ca, cb)
			if err != nil {
				t.Fatalf("%v: Add: %v", l, err)
			}
			static, err := hzdyn.StaticAdd(ca, cb)
			if err != nil || !bytes.Equal(static, sum) {
				t.Fatalf("%v: StaticAdd differs from Add (err %v)", l, err)
			}
			for fold := 0; fold < 3; fold++ {
				next, fst, err := hzdyn.Add(sum, sum)
				if err != nil {
					t.Fatalf("%v: fold %d: %v", l, fold, err)
				}
				st.Accumulate(fst)
				sum = next
			}
			sums[k], stats[k] = sum, st
		})
	}
	if !bytes.Equal(sums[0], sums[1]) || stats[0] != stats[1] {
		t.Fatalf("%v %+v (%d bytes), portable %+v (%d bytes)",
			fzlight.Dispatched(), stats[1], len(sums[1]), stats[0], len(sums[0]))
	}
}

// The conformance homomorphic oracle — decompress(sum) equals the sum of
// the reconstructions, the overflow fold takes the DOC fallback — on both
// pipeline-④ paths: the four-case vectors and every dataset, one subtest each.
func TestHomomorphicOracleBothPaths(t *testing.T) {
	for _, l := range []simd.Level{fzlight.Dispatched(), simd.Portable} {
		t.Run(map[bool]string{true: "kernels", false: "portable"}[l > simd.Portable], func(t *testing.T) {
			fzlight.WithPath(l, func() {
				t.Run("four-cases", func(t *testing.T) {
					o := conformance.HomomorphicOracle{Params: fzlight.Params{ErrorBound: 1e-3}}
					rep, err := o.CheckAllCases(4096)
					if err != nil {
						t.Fatal(err)
					}
					if !rep.OK() {
						t.Fatal(rep.Err())
					}
				})
				for _, name := range datasets.Names() {
					t.Run(name, func(t *testing.T) {
						va, vb, err := datasets.Pair(name, 1<<13)
						if err != nil {
							t.Fatal(err)
						}
						o := conformance.HomomorphicOracle{Params: fzlight.Params{ErrorBound: metrics.AbsBound(1e-3, va)}}
						res, err := o.Check(va, vb)
						if err != nil {
							t.Fatal(err)
						}
						if !res.Report.OK() {
							t.Fatal(res.Report.Err())
						}
					})
				}
			})
		})
	}
}
