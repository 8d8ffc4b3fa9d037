package fzlight

import (
	"bytes"
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n writable bytes that end flush against an inaccessible
// page: one byte read or written past them faults.
func guarded(t *testing.T, n int) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	size := (n+page-1)/page*page + page
	m, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(m) }) // test memory; nothing to do about a failure
	if err := syscall.Mprotect(m[size-page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return m[size-page-n : size-page : size-page]
}

// guardedFloats is guarded for 32 float32 values. The only unsafe in the
// package, and test-only: a []float32 cannot otherwise alias mapped memory.
func guardedFloats(t *testing.T) []float32 {
	b := guarded(t, 128)
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), 32)
}

// The wrappers promise the kernels dst[0:141] and blk[0:32] on encode, and
// src[0:need+8] and out[0:32] on decode. With each of the four ending
// against a guard page, at every code length, a kernel that strays faults.
func TestKernelsStayInsideTheirSlices(t *testing.T) {
	needKernels(t)
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("kernel touched memory outside its slices: %v", r)
		}
	}()
	rng := rand.New(rand.NewSource(21))
	blk := guardedFloats(t)
	out := guardedFloats(t)
	dst := guarded(t, kernelDst)
	for w := 0; w <= 31; w++ {
		v, recip := widthBlock(w, rng)
		copy(blk, v[:])
		n, _, ok := encodeBlock32Fast(dst, blk, recip, 0)
		if !ok || int(dst[0]) != w {
			t.Fatalf("width %d: kernel encode ok=%v c=%d", w, ok, dst[0])
		}
		if w == 31 {
			break // the decode kernel stops at 30
		}
		src := guarded(t, n+8)
		copy(src, dst[:n])
		used, _, ok := decodeBlock32Fast(src, out, 0, 2/recip)
		if !ok || used != n {
			t.Fatalf("width %d: kernel decode ok=%v used=%d, want %d", w, ok, used, n)
		}
		if _, _, ok := decodeBlock32Fast(src[:n+7], out, 0, 2/recip); ok && w > 0 {
			t.Fatalf("width %d: kernel decode ran with 7 bytes of slack", w)
		}
	}
}

// The add kernel takes a pair only with need+8 bytes of a, b and dst behind
// the block's first byte. With each of the three ending against a guard
// page, at every operand width, a kernel that strays faults: flush against
// the page it must stop before the last pair, 8 bytes back it must take it.
func TestSumKernelStaysInsideItsSlices(t *testing.T) {
	needKernels(t)
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("kernel touched memory outside its slices: %v", r)
		}
	}()
	rng := rand.New(rand.NewSource(25))
	place := func(s []byte, slack int) []byte {
		g := guarded(t, len(s)+slack)
		copy(g, s)
		return g
	}
	for ca := 1; ca <= 30; ca++ {
		for _, cb := range []int{1, ca, 30} {
			a := blockStream(widthDeltas(rng, ca), widthDeltas(rng, cb), widthDeltas(rng, ca))
			b := blockStream(widthDeltas(rng, cb), widthDeltas(rng, ca), widthDeltas(rng, ca))
			want := sumRun(false, a, b, 3)
			if want.err != nil || want.done != 3 {
				t.Fatalf("widths %d,%d: portable run: %+v", ca, cb, want)
			}
			for _, c := range []struct{ sa, sb, sd, pairs int }{
				{8, 8, 8, 3}, {0, 8, 8, 2}, {8, 0, 8, 2}, {8, 8, 7, 2}, {0, 0, 0, 2}, {7, 7, 7, 2},
			} {
				dst := guarded(t, want.wrote+c.sd)
				w, ua, ub, k := sumBlocks32Fast(dst, place(a, c.sa), place(b, c.sb), 3)
				if k < c.pairs && sumRun(false, a[ua:], b[ub:], 1).out[0] == 31 {
					continue // a 31-bit sum stops the kernel by itself
				}
				if k != c.pairs || !bytes.Equal(dst[:w], want.out[:w]) || (k == 3 && (w != want.wrote || ua != len(a) || ub != len(b))) {
					t.Fatalf("widths %d,%d slack a=%d b=%d dst=%d: kernel did %d pairs, want %d (wrote %d of %d)", ca, cb, c.sa, c.sb, c.sd, k, c.pairs, w, want.wrote)
				}
			}
		}
	}
}
