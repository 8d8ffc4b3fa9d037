package fzlight

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"hzccl/internal/datasets"
	"hzccl/internal/telemetry"
)

// A chunk split into segments must encode to the container one segment
// gives, byte for byte, and fail with the error one segment fails with.

// compressSegments compresses data as a version-1 container of the given
// chunk count with every chunk split into up to segs segments of at least
// one element (the split size forced down to a block, so small inputs
// split too).
func compressSegments(data []float32, p Params, segs int) ([]byte, error) {
	p = p.withDefaults()
	h := Header{Version: 1}.shape(len(data), p)
	dst := make([]byte, h.Bound())
	n, err := compressSplit(dst, data, h, segs*h.NumChunks, 1)
	if err != nil {
		return nil, err
	}
	return dst[:n], nil
}

// oneSegment is the reference: the same container on one core.
func oneSegment(data []float32, p Params) ([]byte, error) { return compressSegments(data, p, 1) }

func TestSegmentsMatchOneSegment(t *testing.T) {
	const n = 3*4096 + 32*5 + 7 // off every block and segment boundary
	for _, name := range datasets.Names() {
		field, err := datasets.Field(name, 0, n)
		if err != nil {
			t.Fatal(err)
		}
		eb := 1e-3 * maxAbs(field)
		for _, length := range []int{33, 32*8 + 1, 32*97 + 31, 4096 + 5, n} {
			for _, threads := range []int{1, 3} {
				p := Params{ErrorBound: eb, Threads: threads}
				data := field[:length]
				want, err := oneSegment(data, p)
				if err != nil {
					t.Fatal(err)
				}
				for segs := 2; segs <= 8; segs++ {
					got, err := compressSegments(data, p, segs)
					if err != nil || !bytes.Equal(got, want) {
						t.Fatalf("%s n=%d threads=%d: %d segments give %d bytes (err %v), one segment %d",
							name, length, threads, segs, len(got), err, len(want))
					}
				}
			}
		}
	}
}

// TestSegmentsFailLikeOneSegment puts a bad value — NaN, ±Inf, out of the
// quantisation range — on either side of a segment boundary, and two bad
// values of different kinds on both sides, and wants the error one segment
// reports.
func TestSegmentsFailLikeOneSegment(t *testing.T) {
	const n = 32*64 + 9
	p := Params{ErrorBound: 1e-3}
	bad := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 1e30, -1e30}
	for segs := 2; segs <= 8; segs++ {
		// The first element of segment 1 (block-aligned) and the one in front.
		edge := 32 * (((n + 31) / 32) / segs)
		for _, at := range []int{edge - 1, edge, edge + 1, n - 1} {
			for _, v := range bad {
				for _, w := range append([]float32{0}, bad...) {
					data := smoothField(n, 3)
					data[at] = v
					if w != 0 && at+1 < n {
						data[at+1] = w
					}
					if w != 0 && at > 0 {
						data[at-1] = w
					}
					_, want := oneSegment(data, p)
					_, got := compressSegments(data, p, segs)
					if want == nil || got != want {
						t.Fatalf("segs=%d bad %v at %d (neighbours %v): split err %v, one segment err %v", segs, v, at, w, got, want)
					}
				}
			}
		}
	}
}

// TestSegmentsRaceFree compresses with four goroutines at once, as four
// ranks do, every container split across the runner's helpers.
func TestSegmentsRaceFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	field, err := datasets.Field("CESM-ATM", 0, 1<<16+77)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{ErrorBound: 1e-3 * maxAbs(field)}
	want, err := oneSegment(field, p)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				got, err := compressSegments(field, p, 2+(g+i)%3)
				if err != nil || !bytes.Equal(got, want) {
					errs <- fmt.Errorf("goroutine %d pass %d: %d bytes, err %v", g, i, len(got), err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCompressSplitsAtSplitSize is the production path: at GOMAXPROCS 2 a
// chunk of 2·minSegment elements runs as two segments, one a shade shorter
// as one, and the container is the one-core container either way.
func TestCompressSplitsAtSplitSize(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	data := smoothField(2*minSegment, 5)
	p := Params{ErrorBound: 1e-3}
	for _, tc := range []struct {
		n, segments int
	}{{2*minSegment - 1, 1}, {2 * minSegment, 2}} {
		before := telemetry.Capture()
		got, err := Compress(data[:tc.n], p)
		if err != nil {
			t.Fatal(err)
		}
		if d := telemetry.Capture().Delta(before).Counters["fzlight.compress.segments"]; d != int64(tc.segments) {
			t.Errorf("n=%d: %d segments, want %d", tc.n, d, tc.segments)
		}
		if want, _ := oneSegment(data[:tc.n], p); !bytes.Equal(got, want) {
			t.Errorf("n=%d: container differs from the one-core container", tc.n)
		}
	}
}

func maxAbs(v []float32) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, math.Abs(float64(x)))
	}
	return m
}

// BenchmarkCompressSegments times one chunk on one core and split in two
// across the length sweep minSegment was chosen from (DESIGN §11.3):
//
//	go test -run '^$' -bench CompressSegments -benchtime 200x ./internal/fzlight
func BenchmarkCompressSegments(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skip("needs GOMAXPROCS >= 2")
	}
	for _, name := range []string{"CESM-ATM", "NYX", "SimSet1"} {
		field, err := datasets.Field(name, 0, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		p := Params{ErrorBound: 1e-4 * maxAbs(field)}.withDefaults()
		for _, n := range []int{1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18, 1 << 20} {
			h := Header{Version: 1}.shape(n, p)
			dst := make([]byte, h.Bound())
			for _, segs := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/n=%d/segs=%d", name, n, segs), func(b *testing.B) {
					b.SetBytes(int64(4 * n))
					for i := 0; i < b.N; i++ {
						if _, err := compressSplit(dst, field[:n], h, segs, 1); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
