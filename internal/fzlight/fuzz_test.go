package fzlight

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"hzccl/internal/floatbytes"
	"hzccl/internal/simd"
)

// Native fuzz targets. `go test` runs the seed corpus on every test run;
// `go test -fuzz=FuzzDecompress ./internal/fzlight` explores further.

func FuzzDecompress(f *testing.F) {
	data := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	comp, err := Compress(data, Params{ErrorBound: 1e-3})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(comp)
	f.Add([]byte("FZL1"))
	f.Add([]byte{})
	comp2, err := Compress2D(data, 2, 4, Params{ErrorBound: 1e-3})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(comp2)
	comp3, err := Compress3D(data, 2, 2, 2, Params{ErrorBound: 1e-3})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(comp3)
	f.Fuzz(func(t *testing.T, b []byte) {
		// must never panic or allocate absurdly; errors are fine. A constant
		// block of BlockSize values costs one marker byte, so that is the
		// most a container byte can expand to.
		out, err := Decompress(b)
		if h, _ := ParseHeader(b); err == nil && len(out) > len(b)*h.BlockSize {
			t.Fatalf("implausible expansion: %d values from %d bytes", len(out), len(b))
		}
		if level > simd.Portable { // the portable decoder must agree, bit for bit
			withPath(simd.Portable, func() {
				ref, rerr := Decompress(b)
				if (err == nil) != (rerr == nil) || !sameBits(out, ref) {
					t.Fatalf("kernels: %d values, err %v; portable: %d values, err %v", len(out), err, len(ref), rerr)
				}
			})
		}
		if len(b) > 5 && b[5] != 0 && err == nil {
			t.Fatalf("a container with flags 0x%02x decoded", b[5])
		}
		_, _ = Stats(b)
	})
}

func FuzzCompressRoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 64}, uint8(2), uint8(3))
	long := make([]byte, 0, 4*(32*40+11)) // room for segments of several blocks
	for i := 0; i < cap(long)/4; i++ {
		long = binary.LittleEndian.AppendUint32(long, math.Float32bits(float32(100*math.Sin(float64(i)*0.01))))
	}
	f.Add(long, uint8(1), uint8(5*6))
	f.Fuzz(func(t *testing.T, raw []byte, ebSel, threads uint8) {
		vals := floatbytes.Floats(raw)
		clean := vals[:0]
		for _, v := range vals {
			f64 := float64(v)
			if !math.IsNaN(f64) && !math.IsInf(f64, 0) && math.Abs(f64) < 1e5 {
				clean = append(clean, v)
			}
		}
		eb := []float64{1e-1, 1e-2, 1e-3, 1e-4}[ebSel%4]
		comp, err := Compress(clean, Params{ErrorBound: eb, Threads: 1 + int(threads%5)})
		if err != nil {
			t.Fatalf("compress rejected clean input: %v", err)
		}
		// Every chunk split into 2–8 segments gives the one-segment bytes.
		one, err := oneSegment(clean, Params{ErrorBound: eb, Threads: 1 + int(threads%5)})
		if err != nil || !bytes.Equal(one, comp) {
			t.Fatalf("one-segment container differs from Compress's (err %v)", err)
		}
		segs := 2 + int(threads/5)%7
		if split, err := compressSegments(clean, Params{ErrorBound: eb, Threads: 1 + int(threads%5)}, segs); err != nil || !bytes.Equal(split, one) {
			t.Fatalf("%d segments per chunk give a different container (err %v)", segs, err)
		}
		got, err := Decompress(comp)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if level > simd.Portable { // the portable codec must produce the same container
			withPath(simd.Portable, func() {
				ref, err := Compress(clean, Params{ErrorBound: eb, Threads: 1 + int(threads%5)})
				if err != nil || !bytes.Equal(ref, comp) {
					t.Fatalf("portable container differs from the kernels' (err %v)", err)
				}
			})
		}
		if len(got) != len(clean) {
			t.Fatalf("length %d != %d", len(got), len(clean))
		}
		maxAbs := 0.0
		for _, v := range clean {
			if a := math.Abs(float64(v)); a > maxAbs {
				maxAbs = a
			}
		}
		limit := eb + maxAbs*math.Pow(2, -23)
		for i := range clean {
			if d := math.Abs(float64(clean[i]) - float64(got[i])); d > limit {
				t.Fatalf("bound violated at %d: err %g > %g", i, d, limit)
			}
		}
	})
}
