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

// guardedFloats is guarded for n float32 values. The only unsafe in the
// package, and test-only: a []float32 cannot otherwise alias mapped memory.
func guardedFloats(t *testing.T, n int) []float32 {
	b := guarded(t, 4*n)
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), n)
}

// faultFails turns a fault in a kernel into a test failure.
func faultFails(t *testing.T) func() {
	old := debug.SetPanicOnFault(true)
	return func() {
		debug.SetPanicOnFault(old)
		if r := recover(); r != nil {
			t.Fatalf("kernel touched memory outside its slices: %v", r)
		}
	}
}

// The encode and decode kernels check, per block of a run, 141 bytes of
// dst and need+8 bytes of src; they read and write 32 floats a block. With
// every buffer ending against a guard page and the run's last block at
// every code length, a kernel that strays faults: one byte short of its
// contract it must stop in front of the last block, inside it take it.
func TestKernelsStayInsideTheirSlices(t *testing.T) {
	needKernels(t)
	defer faultFails(t)()
	rng := rand.New(rand.NewSource(21))
	for w := 0; w <= 31; w++ {
		// The all-zero middle block hands the last one qprev = 0, so its
		// code length is exactly w.
		first, recip := widthBlock(w, rng)
		last, _ := widthBlock(w, rng)
		blk := guardedFloats(t, 96)
		copy(blk, flat(first, [32]float32{}, last))
		want, off, _, err := encodeChain(blk, recip, 0)
		if err != nil || int(want[off[2]]) != w {
			t.Fatalf("width %d: portable run: %v, c=%d", w, err, want[off[2]])
		}
		for _, c := range []struct{ room, blocks int }{{kernelDst, 3}, {kernelDst - 1, 2}} {
			dst := guarded(t, off[2]+c.room)
			if wr, k, _ := encodeKernel(dst, blk, recip, 0); k != c.blocks || wr != off[k] || !bytes.Equal(dst[:wr], want[:wr]) {
				t.Fatalf("width %d, %d bytes for the last block: kernel encoded %d blocks (%d bytes), want %d", w, c.room, k, wr, c.blocks)
			}
		}
		if w == 31 {
			continue // the decode kernel stops at 30
		}
		out := guardedFloats(t, 96)
		for _, c := range []struct{ slack, blocks int }{{8, 3}, {7, 2}, {0, 2}} {
			src := guarded(t, off[3]+c.slack)
			copy(src, want[:off[3]])
			if w == 0 {
				c.blocks = 3 // a constant block is its marker byte
			}
			if u, k, _ := decodeKernel(src, out, 2/recip, 0); k != c.blocks || u != off[k] {
				t.Fatalf("width %d, %d bytes of slack: kernel decoded %d blocks (used %d), want %d", w, c.slack, k, u, c.blocks)
			}
		}
	}
}

// The add kernel takes a pair only with need+8 bytes of a, b and dst behind
// the block's first byte. With each of the three ending against a guard
// page, at every operand width and through all four pipelines, a kernel
// that strays faults: flush against the page it must stop before the last
// pair, 8 bytes back it must take it.
func TestSumKernelStaysInsideItsSlices(t *testing.T) {
	needKernels(t)
	defer faultFails(t)()
	rng := rand.New(rand.NewSource(25))
	place := func(s []byte, slack int) []byte {
		g := guarded(t, len(s)+slack)
		copy(g, s)
		return g
	}
	for ca := 0; ca <= 30; ca++ {
		cbs := []int{0, 1, ca, 30}
		if ca == 0 {
			cbs = append(cbs, 31, 32) // pipeline ② copies every width
		}
		for _, cb := range cbs {
			a := blockStream(widthDeltas(rng, ca), widthDeltas(rng, cb), widthDeltas(rng, ca))
			b := blockStream(widthDeltas(rng, cb), widthDeltas(rng, ca), widthDeltas(rng, ca))
			want := sumRun(false, a, b, 3, true)
			if want.err != nil || want.done != 3 {
				t.Fatalf("widths %d,%d: portable run: %v", ca, cb, want)
			}
			for _, c := range []struct{ sa, sb, sd int }{{8, 8, 8}, {0, 8, 8}, {8, 0, 8}, {8, 8, 7}, {0, 0, 0}, {7, 7, 7}} {
				ga, gb, dst := place(a, c.sa), place(b, c.sb), guarded(t, want.wrote+c.sd)
				k := contractPairs(ga, gb, len(dst), 3, true)
				if r := sumRun(false, a, b, k, true); c.sa+c.sb+c.sd == 24 && k < 3 &&
					(a[r.usedA] == 0 || b[r.usedB] == 0 || sumRun(false, a[r.usedA:], b[r.usedB:], 1, false).out[0] != 31) {
					t.Fatalf("widths %d,%d: with 8 bytes of slack only a 31-bit sum may stop the kernel, not pair %d", ca, cb, k)
				}
				if r := kernelSum(dst, ga, gb, 3, true); r.done != k || !bytes.Equal(r.out, want.out[:r.wrote]) || (k == 3 && (r.wrote != want.wrote || r.usedA != len(a) || r.usedB != len(b))) {
					t.Fatalf("widths %d,%d slack a=%d b=%d dst=%d: kernel did %d pairs, want %d (wrote %d of %d)", ca, cb, c.sa, c.sb, c.sd, r.done, k, r.wrote, want.wrote)
				}
			}
		}
	}
}

// Runs longer than kernelRun — the wrappers enter the kernel again every
// kernelRun blocks — with every buffer against a guard page: all three
// kernels take the whole run, identically to the portable codecs.
func TestKernelLongRunsStayInsideTheirSlices(t *testing.T) {
	needKernels(t)
	defer faultFails(t)()
	rng := rand.New(rand.NewSource(28))
	const n = 2*kernelRun + 300
	var enc [2][]byte
	for side := range enc {
		blk := guardedFloats(t, 32*n)
		for j := 0; j < n; j++ {
			v, _ := widthBlock(rng.Intn(25)*min(1, rng.Intn(4)), rng) // no sum reaches 31 bits
			copy(blk[32*j:], v[:])
		}
		want, off, qs, err := encodeChain(blk, 1.25, 0)
		if err != nil {
			t.Fatal(err)
		}
		dst := guarded(t, off[n-1]+kernelDst)
		if w, k, q := encodeKernel(dst, blk, 1.25, 0); k != n || w != off[n] || q != qs[n] || !bytes.Equal(dst[:w], want[:w]) {
			t.Fatalf("encode: kernel did %d blocks of %d (%d bytes of %d)", k, n, w, off[n])
		}
		src := guarded(t, off[n]+8)
		copy(src, want[:off[n]])
		ref, doff, accs := decodeChain(src, n, 0.8, 0)
		out := guardedFloats(t, 32*n)
		if u, k, a := decodeKernel(src, out, 0.8, 0); k != n || u != doff[n] || a != accs[n] || !sameBits(out, ref) {
			t.Fatalf("decode: kernel did %d blocks of %d (used %d of %d)", k, n, u, doff[n])
		}
		enc[side] = src
	}
	want := sumRun(false, enc[0], enc[1], n, true)
	if want.err != nil || want.done != n {
		t.Fatalf("portable add: %v", want.err)
	}
	if r := kernelSum(guarded(t, want.wrote+8), enc[0], enc[1], n, true); !r.same(want) {
		t.Fatalf("add: kernel did %d pairs of %d, tally %v, want %v", r.done, n, r.tally[1:], want.tally[1:])
	}
}
