package hzdyn

// Tests for the allocation-free Into API: AddInto must be a
// byte-for-byte drop-in for Add in every container layout,
// reject short destinations, and — in the single-chunk steady state the
// ring collectives run — perform zero allocations per op.

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"hzccl/internal/fzlight"
)

// AddInto must produce exactly the container Add allocates, across the
// single-chunk fast path, the multi-chunk compaction path, and the empty
// input.
func TestAddIntoMatchesAdd(t *testing.T) {
	for _, n := range []int{0, 1, 31, 32, 1000, 4097} {
		for _, threads := range []int{1, 4} {
			a := smooth(n, 100+int64(n), 1)
			b := smooth(n, 200+int64(n), 2)
			p := fzlight.Params{ErrorBound: 1e-3, Threads: threads}
			ca := compress(t, a, p)
			cb := compress(t, b, p)
			want, wantStats, err := Add(ca, cb)
			if err != nil {
				t.Fatalf("Add(n=%d,t=%d): %v", n, threads, err)
			}
			dst := make([]byte, AddBound(len(ca), len(cb)))
			m, stats, err := AddInto(dst, ca, cb)
			if err != nil {
				t.Fatalf("AddInto(n=%d,t=%d): %v", n, threads, err)
			}
			if !bytes.Equal(dst[:m], want) {
				t.Fatalf("n=%d t=%d: AddInto output differs from Add (%d vs %d bytes)",
					n, threads, m, len(want))
			}
			if stats != wantStats {
				t.Fatalf("n=%d t=%d: AddInto stats %+v differ from Add stats %+v",
					n, threads, stats, wantStats)
			}
		}
	}
}

// The Lorenzo layouts take the same single- and multi-chunk paths: AddInto
// must match Add exactly on 2D and 3D containers too.
func TestAddIntoMatchesAddLayouts(t *testing.T) {
	for _, threads := range []int{1, 3} {
		p := fzlight.Params{ErrorBound: 1e-3, Threads: threads}
		for _, tc := range layoutCases {
			ca, cb := layoutPair(t, tc.compress, p, 11, 12)
			want, _, err := Add(ca, cb)
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]byte, AddBound(len(ca), len(cb)))
			m, _, err := AddInto(dst, ca, cb)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst[:m], want) {
				t.Fatalf("%s t=%d: AddInto output differs from Add (%d vs %d bytes)", tc.name, threads, m, len(want))
			}
		}
	}
}

// layoutCases compress a field of layoutLen values in each container
// layout.
var layoutCases = []struct {
	name     string
	compress func(data []float32, p fzlight.Params) ([]byte, error)
}{
	{"1d", fzlight.Compress},
	{"2d", func(d []float32, p fzlight.Params) ([]byte, error) { return fzlight.Compress2D(d, 128, 128, p) }},
	{"3d", func(d []float32, p fzlight.Params) ([]byte, error) { return fzlight.Compress3D(d, 16, 32, 32, p) }},
}

const layoutLen = 1 << 14

// layoutPair compresses two smooth fields of layoutLen values.
func layoutPair(t *testing.T, compress func([]float32, fzlight.Params) ([]byte, error), p fzlight.Params, seedA, seedB int64) (ca, cb []byte) {
	t.Helper()
	var err error
	if ca, err = compress(smooth(layoutLen, seedA, 1), p); err != nil {
		t.Fatal(err)
	}
	if cb, err = compress(smooth(layoutLen, seedB, 2), p); err != nil {
		t.Fatal(err)
	}
	return ca, cb
}

// A destination below AddBound must be rejected before any write.
func TestAddIntoShortOutput(t *testing.T) {
	a := smooth(1000, 1, 1)
	b := smooth(1000, 2, 1)
	p := fzlight.Params{ErrorBound: 1e-3}
	ca := compress(t, a, p)
	cb := compress(t, b, p)
	dst := make([]byte, AddBound(len(ca), len(cb))-1)
	if _, _, err := AddInto(dst, ca, cb); !errors.Is(err, fzlight.ErrShortOutput) {
		t.Fatalf("short dst: got %v, want ErrShortOutput", err)
	}
}

// The single-chunk steady state — one homomorphic add per ring step —
// must not allocate once the scratch pools are warm, in any layout.
// scripts/bench.sh gates CI on the benchmark twin of this assertion.
func TestAddIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	for _, tc := range layoutCases {
		ca, cb := layoutPair(t, tc.compress, fzlight.Params{ErrorBound: 1e-3}, 21, 22)
		dst := make([]byte, AddBound(len(ca), len(cb)))
		for i := 0; i < 4; i++ {
			if _, _, err := AddInto(dst, ca, cb); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := AddInto(dst, ca, cb); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: steady-state AddInto allocates %v objects/op, want 0", tc.name, allocs)
		}
	}
}

// The multi-chunk path runs its chunks on the fanout runner from a pooled
// plan: no goroutine, closure or index slice per call, so its steady state
// allocates nothing either, with the helpers taking chunks.
func TestAddIntoMultiChunkScratchPooled(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	data := smooth(1<<14, 24, 1)
	p := fzlight.Params{ErrorBound: 1e-3, Threads: 4}
	comp := compress(t, data, p)
	h, err := fzlight.ParseHeader(comp)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumChunks < 2 {
		t.Fatalf("want a multi-chunk container, got %d chunks", h.NumChunks)
	}
	sum := make([]byte, AddBound(len(comp), len(comp)))
	op := func() error { _, _, err := AddInto(sum, comp, comp); return err }
	for i := 0; i < 4; i++ {
		if err := op(); err != nil {
			t.Fatal(err)
		}
	}
	// Counted by hand, the fewest over up to ten rounds:
	// testing.AllocsPerRun runs at GOMAXPROCS 1, where no helper takes a
	// chunk, and with more a call that moves between cores takes a few
	// rounds to find warm bufpool scratch on each.
	best := ^uint64(0)
	for r := 0; r < 10 && best > 0; r++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < 100; i++ {
			if err := op(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		best = min(best, m1.Mallocs-m0.Mallocs)
	}
	if best != 0 {
		t.Errorf("multi-chunk AddInto allocates %d objects in 100 calls, want 0", best)
	}
}
