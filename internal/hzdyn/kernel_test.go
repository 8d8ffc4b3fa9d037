package hzdyn

// Both pipeline-④ paths — fzlight's SIMD add kernel and its portable Go
// body — under the same tests.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"hzccl/internal/datasets"
	"hzccl/internal/fzlight"
	"hzccl/internal/metrics"
)

// TestMain runs the package's tests as dispatched and once more with
// allowSIMD cleared, so every test in the package pins the portable
// pipeline ④ as well (on a CPU without the kernels the two passes are the
// same path). Benchmarks and fuzzing sessions run once, as dispatched.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 && flagUnset("test.bench") && flagUnset("test.fuzz") && flagUnset("test.fuzzworker") && flagUnset("test.list") {
		fmt.Println("hzdyn: passed as dispatched; running the suite again on the portable pipeline ④")
		allowSIMD = false
		code = m.Run()
	}
	os.Exit(code)
}

func flagUnset(name string) bool {
	f := flag.Lookup(name)
	return f == nil || f.Value.String() == "" || f.Value.String() == "false"
}

// withPath runs f with allowSIMD set to kernels.
func withPath(kernels bool, f func()) {
	defer func(old bool) { allowSIMD = old }(allowSIMD)
	allowSIMD = kernels
	f()
}

// Every dataset, at sizes with and without a tail block, single- and
// multi-chunk, dynamic and static, then folded onto itself three times (the
// widths grow by three bits): the two paths must produce the same container and
// the same pipeline tallies.
func TestAddPathsIdentical(t *testing.T) {
	for _, name := range datasets.Names() {
		for _, n := range []int{32, 95, 4096, 1<<14 + 7} {
			for _, threads := range []int{1, 3} {
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
				var stats [2]Stats
				for k, kernels := range []bool{false, true} {
					withPath(kernels, func() {
						sum, st, err := Add(ca, cb)
						if err != nil {
							t.Fatalf("%s n=%d: Add: %v", name, n, err)
						}
						static, err := StaticAdd(ca, cb)
						if err != nil || !bytes.Equal(static, sum) {
							t.Fatalf("%s n=%d kernels=%v: StaticAdd differs from Add (err %v)", name, n, kernels, err)
						}
						for fold := 0; fold < 3; fold++ {
							next, fst, err := Add(sum, sum)
							if err != nil {
								t.Fatalf("%s n=%d: fold %d: %v", name, n, fold, err)
							}
							st.Accumulate(fst)
							sum = next
						}
						sums[k], stats[k] = sum, st
					})
				}
				if !bytes.Equal(sums[0], sums[1]) || stats[0] != stats[1] {
					t.Fatalf("%s n=%d threads=%d: kernels %+v (%d bytes), portable %+v (%d bytes)",
						name, n, threads, stats[1], len(sums[1]), stats[0], len(sums[0]))
				}
			}
		}
	}
}
