package fzlight

// The SIMD add kernel against the portable pipelines it must reproduce:
// bytes written, bytes consumed from each operand, pairs done, the ①–④
// tally, output bytes and typed errors, on runs of block pairs.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hzccl/internal/simd"
)

// widthDeltas returns 32 deltas whose code length is exactly c.
func widthDeltas(rng *rand.Rand, c int) (p [32]int32) {
	if c == 0 {
		return p
	}
	mask := uint32(1)<<uint(c) - 1
	for i := range p {
		p[i] = int32(rng.Uint32() & mask)
		if rng.Intn(2) == 1 {
			p[i] = -p[i]
		}
		if p[i] == math.MinInt32 {
			p[i]++ // |min int32| is not representable in sign/magnitude
		}
	}
	p[rng.Intn(32)] = int32(uint32(1) << uint(c-1)) // c is tight
	if c == 32 {
		p[rng.Intn(32)] = -math.MaxInt32
	}
	return p
}

// blockStream encodes the delta blocks one after another.
func blockStream(blocks ...[32]int32) []byte {
	var out []byte
	var scratch [32]uint32
	for i := range blocks {
		var dst [kernelDst]byte
		out = append(out, dst[:EncodeBlock(dst[:], blocks[i][:], scratch[:])]...)
	}
	return out
}

func fillDeltas(even, odd int32) (p [32]int32) {
	for i := range p {
		p[i] = even
		if i%2 == 1 {
			p[i] = odd
		}
	}
	return p
}

func negDeltas(p [32]int32) [32]int32 {
	for i := range p {
		p[i] = -p[i]
	}
	return p
}

// sumSeeds are operand stream pairs: every width pair of the fused
// equivalence sweep as the middle pair of a three-pair run, then the edges.
func sumSeeds() (seeds [][2][]byte) {
	rng := rand.New(rand.NewSource(21))
	add := func(a, b []byte) { seeds = append(seeds, [2][]byte{a, b}) }
	lead, trail := widthDeltas(rng, 5), widthDeltas(rng, 6)
	for ca := 0; ca <= 32; ca++ {
		for cb := 0; cb <= 32; cb++ {
			add(blockStream(lead, widthDeltas(rng, ca), trail), blockStream(trail, widthDeltas(rng, cb), lead))
		}
	}
	// Carries into the next width, up to 30 → 31, which the kernel leaves to
	// the portable path, between pairs it takes.
	for c := 1; c <= 30; c++ {
		top := int32(uint32(1)<<uint(c) - 1)
		add(blockStream(lead, fillDeltas(top, -top), trail), blockStream(lead, fillDeltas(top, -1), trail))
	}
	// Every delta cancels: the sum is a constant block, one byte.
	for _, c := range []int{1, 6, 8, 17, 30} {
		p := widthDeltas(rng, c)
		add(blockStream(lead, p, p, trail), blockStream(trail, negDeltas(p), negDeltas(p), lead))
	}
	// Pipelines ①–③ in the middle of a run: constant blocks beside each
	// other and beside every width, the copied block up to width 32.
	var zero [32]int32
	for c := 0; c <= 32; c++ {
		p := widthDeltas(rng, c)
		add(blockStream(lead, zero, p, zero, zero, trail), blockStream(trail, p, zero, zero, p, lead))
	}
	// int32-edge deltas: ±(2^30−1) at width 30, ±(2^31−1) beyond it, and the
	// overflow of two of those.
	const e30, e31 = 1<<30 - 1, math.MaxInt32
	add(blockStream(fillDeltas(e30, -e30), fillDeltas(e30, e30)), blockStream(fillDeltas(e30, -e30), fillDeltas(-e30, -e30)))
	add(blockStream(lead, fillDeltas(e31, -e31)), blockStream(lead, fillDeltas(-e31, e31)))
	add(blockStream(lead, fillDeltas(e31, -e31)), blockStream(lead, fillDeltas(e31, 1)))
	// Truncated operands: a run that ends inside a block, on either side, and
	// one that ends inside the 8 bytes of slack the kernel asks for.
	full := blockStream(lead, widthDeltas(rng, 9), zero, widthDeltas(rng, 17), trail)
	for _, cut := range []int{1, 4, 7, 8, 9, 30} {
		add(full[:len(full)-cut], full)
		add(full, full[:len(full)-cut])
	}
	add(nil, full)
	marker33 := []byte{33, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}
	add(marker33, full)
	// A marker beyond 32 beside a constant block, on either side, with bytes
	// enough behind it to pass for a block: the copy must refuse it.
	for _, m := range []byte{33, 255} {
		bogus := append(blockStream(lead), append([]byte{m}, make([]byte, 1100)...)...)
		add(bogus, blockStream(trail, zero, lead))
		add(blockStream(trail, zero, lead), bogus)
	}
	return seeds
}

// wholeBlocks counts the well-formed full blocks at the head of s.
func wholeBlocks(s []byte) (n int) {
	for o := 0; n < 64; n++ {
		size, err := BlockBytes(s[o:], 32)
		if err != nil {
			break
		}
		o += size
	}
	return n
}

type sumResult struct {
	wrote, usedA, usedB, done int
	tally                     [5]int64
	overflow                  bool
	err                       error
	out                       []byte
}

func (r sumResult) String() string {
	return fmt.Sprintf("wrote=%d usedA=%d usedB=%d done=%d tally=%v overflow=%v err=%v % x",
		r.wrote, r.usedA, r.usedB, r.done, r.tally[1:], r.overflow, r.err, r.out)
}

func (r sumResult) same(o sumResult) bool {
	return r.wrote == o.wrote && r.usedA == o.usedA && r.usedB == o.usedB && r.done == o.done && r.tally == o.tally &&
		r.overflow == o.overflow && (r.err == nil) == (o.err == nil) && errors.Is(r.err, ErrCorrupt) == errors.Is(o.err, ErrCorrupt) &&
		bytes.Equal(r.out, o.out)
}

// portablePair is hzdyn's portable step for one full block pair: with
// dynamic set, pipelines ①–③ where a block is constant; SumBlock (④)
// otherwise.
func portablePair(dst, a, b []byte, dynamic bool) (wrote, usedA, usedB, pipeline int, overflow bool, err error) {
	switch {
	case len(a) == 0 || len(b) == 0:
		return 0, 0, 0, 0, false, ErrCorrupt
	case dynamic && a[0] == 0 && b[0] == 0:
		dst[0] = 0
		return 1, 1, 1, 1, false, nil
	case dynamic && a[0] == 0:
		n, err := BlockBytes(b, 32)
		return copy(dst, b[:n]), 1, n, 2, false, err
	case dynamic && b[0] == 0:
		n, err := BlockBytes(a, 32)
		return copy(dst, a[:n]), n, 1, 3, false, err
	}
	var pa, pb [32]int32
	var scratch [32]uint32
	wrote, usedA, usedB, overflow, err = SumBlock(dst, a, b, pa[:], pb[:], scratch[:])
	return wrote, usedA, usedB, 4, overflow, err
}

// addPairs is hzdyn's block loop over full pairs: SumRun32 takes what it
// can, portablePair the pair it stops at. On an error or overflow only
// those are reported.
func addPairs(dst, a, b []byte, pairs int, dynamic bool) (r sumResult) {
	for {
		w, ua, ub, k := SumRun32(dst[r.wrote:], a[r.usedA:], b[r.usedB:], pairs-r.done, dynamic, &r.tally)
		r.wrote, r.usedA, r.usedB, r.done = r.wrote+w, r.usedA+ua, r.usedB+ub, r.done+k
		if r.done >= pairs {
			break
		}
		w, ua, ub, p, overflow, err := portablePair(dst[r.wrote:], a[r.usedA:], b[r.usedB:], dynamic)
		if overflow || err != nil {
			return sumResult{overflow: overflow, err: err}
		}
		r.wrote, r.usedA, r.usedB, r.done = r.wrote+w, r.usedA+ua, r.usedB+ub, r.done+1
		r.tally[p]++
	}
	r.out = dst[:r.wrote]
	return r
}

// sumRun is addPairs at kernel level l, into a fresh dst with room to
// spare.
func sumRun(l simd.Level, a, b []byte, pairs int, dynamic bool) (r sumResult) {
	withPath(l, func() { r = addPairs(make([]byte, len(a)+len(b)+16), a, b, pairs, dynamic) })
	return r
}

// kernelSum is the kernel alone on dst.
func kernelSum(dst, a, b []byte, pairs int, dynamic bool) (r sumResult) {
	r.wrote, r.usedA, r.usedB, r.done = SumRun32(dst, a, b, pairs, dynamic, &r.tally)
	r.out = dst[:r.wrote]
	return r
}

// canary returns n bytes of a fixed pattern with room behind them that the
// kernel must leave alone, and a check that it did from byte keep on.
func canary(n int) (buf []byte, intact func(keep int) bool) {
	full := make([]byte, n+64)
	for i := range full {
		full[i] = 0xA5
	}
	return full[:n:n], func(keep int) bool {
		for _, v := range full[min(keep, len(full)):] {
			if v != 0xA5 {
				return false
			}
		}
		return true
	}
}

// kernelTakes says whether the pair at the heads of a and b is inside the
// add kernel's contract with room bytes of dst left: 8 bytes of slack
// behind each block and behind the output, a marker at most 32 beside a
// constant block (dynamic only) and at most 30 otherwise, and no sum of
// code length 31.
func kernelTakes(a, b []byte, room int, dynamic bool) bool {
	size := func(s []byte) int {
		if len(s) == 0 || s[0] > 32 {
			return -1
		}
		if s[0] == 0 {
			return 1
		}
		return 5 + 32*int(s[0]>>3) + 4*int(s[0]&7)
	}
	na, nb := size(a), size(b)
	if na < 0 || nb < 0 || len(a) < na+8 || len(b) < nb+8 {
		return false
	}
	out := max(na, nb) // pipelines ①–③
	if a[0] == 0 || b[0] == 0 {
		if !dynamic {
			return false
		}
	} else {
		if a[0] > 30 || b[0] > 30 {
			return false
		}
		next := sumRun(simd.Portable, a, b, 1, false)
		if next.err != nil || next.out[0] == 31 {
			return false
		}
		out = next.wrote
	}
	return room >= out+8
}

// contractPairs counts the leading pairs of the portable run of a and b
// into room bytes of dst that are inside the add kernel's contract.
func contractPairs(a, b []byte, room, pairs int, dynamic bool) (k int) {
	for ; k < pairs; k++ {
		r := sumRun(simd.Portable, a, b, k, dynamic)
		if r.err != nil || !kernelTakes(a[r.usedA:], b[r.usedB:], room-r.wrote, dynamic) {
			break
		}
	}
	return k
}

// diffSum runs one operand pair through addPairs on both paths, dynamic and
// static, then through the kernel alone, and fails on any difference, on a
// pair the kernel refuses inside its contract, and on a byte touched
// outside it.
func diffSum(t *testing.T, a, b []byte) {
	t.Helper()
	// The whole pairs at the head of the streams, and one more: whatever
	// follows them — a corrupt block, the end — must stop both paths alike.
	whole := max(1, min(wholeBlocks(a), wholeBlocks(b)))
	for _, pairs := range []int{whole, whole + 1} {
		for _, dynamic := range []bool{true, false} {
			want := sumRun(simd.Portable, a, b, pairs, dynamic)
			if want.err != nil && !errors.Is(want.err, ErrCorrupt) {
				t.Fatalf("portable: untyped error %v", want.err)
			}
			if level == simd.Portable {
				continue
			}
			if got := sumRun(level, a, b, pairs, dynamic); !got.same(want) {
				t.Fatalf("%d pairs, dynamic=%v\nkernels:  %v\nportable: %v", pairs, dynamic, got, want)
			}
			diffSumKernel(t, a, b, pairs, dynamic)
		}
	}
}

// diffSumKernel checks the kernel alone: a prefix of the portable run,
// stopped for a reason, and one byte less slack in dst, a or b costs
// exactly the last pair.
func diffSumKernel(t *testing.T, a, b []byte, pairs int, dynamic bool) {
	t.Helper()
	prefixOK := func(r sumResult) bool {
		ref := sumRun(simd.Portable, a, b, r.done, dynamic)
		return ref.err == nil && r.same(ref)
	}
	dst, intact := canary(len(a) + len(b) + 16)
	got := kernelSum(dst, a, b, pairs, dynamic)
	if !intact(got.wrote + 8) {
		t.Fatalf("dynamic=%v: kernel wrote past dst[%d+8] (done=%d)", dynamic, got.wrote, got.done)
	}
	if got.done > pairs {
		t.Fatalf("dynamic=%v: kernel did %d pairs of %d", dynamic, got.done, pairs)
	}
	if !prefixOK(got) {
		t.Fatalf("dynamic=%v: kernel alone: %v\nportable: %v", dynamic, got, sumRun(simd.Portable, a, b, got.done, dynamic))
	}
	if got.done < pairs && kernelTakes(a[got.usedA:], b[got.usedB:], len(dst)-got.wrote, dynamic) {
		t.Fatalf("dynamic=%v: kernel refused pair %d inside its contract (markers %d, %d)", dynamic, got.done, a[got.usedA], b[got.usedB])
	}
	k := got.done
	if k == 0 {
		return
	}
	short, intact := canary(got.wrote + 7)
	if r := kernelSum(short, a, b, k, dynamic); r.done != k-1 || !prefixOK(r) || !intact(r.wrote+8) {
		t.Fatalf("dynamic=%v: dst 7 bytes past the last block: kernel did %d pairs of %d (intact %v)", dynamic, r.done, k, intact(r.wrote+8))
	}
	for side, s := range [2][]byte{a[: got.usedA+7 : got.usedA+7], b[: got.usedB+7 : got.usedB+7]} {
		full, intact := canary(len(dst))
		x, y := s, b
		if side == 1 {
			x, y = a, s
		}
		if r := kernelSum(full, x, y, k, dynamic); r.done != k-1 || !prefixOK(r) || !intact(r.wrote+8) {
			t.Fatalf("dynamic=%v: operand %d ends 7 bytes past its last block: kernel did %d pairs of %d", dynamic, side, r.done, k)
		}
	}
}

func TestSumKernelMatchesPortable(t *testing.T) {
	for _, s := range sumSeeds() {
		diffSum(t, s[0], s[1])
	}
	// Random runs: mixed widths, constant blocks on either side or both,
	// widths 31 and 32, some noise.
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 2000; i++ {
		var blocks [2][][32]int32
		n := 1 + rng.Intn(8)
		base := rng.Intn(31)
		for side := range blocks {
			for j := 0; j < n; j++ {
				c := base + rng.Intn(3) - 1
				switch rng.Intn(10) {
				case 0, 1, 2:
					c = 0
				case 3:
					c = rng.Intn(33)
				}
				blocks[side] = append(blocks[side], widthDeltas(rng, max(0, min(c, 32))))
			}
		}
		a, b := blockStream(blocks[0]...), blockStream(blocks[1]...)
		if rng.Intn(4) == 0 {
			a[rng.Intn(len(a))] ^= byte(1 << rng.Intn(8))
		}
		if rng.Intn(4) == 0 {
			b = b[:len(b)-rng.Intn(min(len(b), 12))]
		}
		diffSum(t, a, b)
	}
}

// The kernel must take what it was built for: a run of ordinary pairs and
// constant blocks with slack behind it is one call.
func TestSumKernelTakesWholeRuns(t *testing.T) {
	needKernels(t)
	rng := rand.New(rand.NewSource(23))
	for c := 1; c <= 29; c++ {
		var pa, pb [][32]int32
		for i := 0; i < 9; i++ {
			pa = append(pa, widthDeltas(rng, c*rng.Intn(2)))
			pb = append(pb, widthDeltas(rng, (1+rng.Intn(c))*rng.Intn(2)))
		}
		a, b := append(blockStream(pa...), make([]byte, 8)...), append(blockStream(pb...), make([]byte, 8)...)
		r := kernelSum(make([]byte, len(a)+len(b)), a, b, 9, true)
		if r.done != 9 || r.usedA != len(a)-8 || r.usedB != len(b)-8 || r.tally[1]+r.tally[2]+r.tally[3]+r.tally[4] != 9 {
			t.Fatalf("width %d: kernel did %d pairs of 9 (used %d/%d of %d/%d, tally %v)", c, r.done, r.usedA, r.usedB, len(a)-8, len(b)-8, r.tally[1:])
		}
	}
}

// A run longer than one kernel call (the wrapper feeds the kernel kernelRun
// pairs at a time) comes out whole and identical, tally included.
func TestSumKernelLongRun(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	const pairs = 2*kernelRun + 452
	var pa, pb [][32]int32
	for i := 0; i < pairs; i++ {
		pa = append(pa, widthDeltas(rng, (4+rng.Intn(6))*min(1, rng.Intn(5))))
		pb = append(pb, widthDeltas(rng, (4+rng.Intn(6))*min(1, rng.Intn(5))))
	}
	a, b := append(blockStream(pa...), make([]byte, 8)...), append(blockStream(pb...), make([]byte, 8)...)
	want, got := sumRun(simd.Portable, a, b, pairs, true), sumRun(level, a, b, pairs, true)
	if want.err != nil || want.done != pairs || !got.same(want) || want.tally[1] == 0 || want.tally[4] == 0 {
		t.Fatalf("portable: done=%d err=%v tally %v; dispatched: done=%d err=%v tally %v", want.done, want.err, want.tally[1:], got.done, got.err, got.tally[1:])
	}
	if level > simd.Portable {
		if r := kernelSum(make([]byte, len(a)+len(b)), a, b, pairs, true); r.done != pairs {
			t.Fatalf("kernel did %d pairs of %d", r.done, pairs)
		}
	}
}

// FuzzSumKernel is the differential fuzz target: any two byte strings, read
// as block streams, must come out of the kernel and the portable pipelines
// identically.
func FuzzSumKernel(f *testing.F) {
	for _, s := range sumSeeds() {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b []byte) { diffSum(t, a, b) })
}

// BenchmarkSumRun is hZ-dynamic alone on a run of pairs, as dispatched and
// on the portable path. Each operand block draws its width from [lo, hi]:
// 2–3 and 5–6 (CESM-ATM-like; the kernel's byte lane), 8 and 16 (whole byte
// planes, no residual), 9–10 (the kernel's dword body); "const" makes one
// block in four constant (pipelines ①–③).
func BenchmarkSumRun(b *testing.B) {
	const pairs = 4096
	for _, w := range []struct {
		lo, hi int
		konst  bool
	}{{2, 3, false}, {5, 6, false}, {5, 6, true}, {8, 8, false}, {9, 10, false}, {16, 16, false}} {
		rng := rand.New(rand.NewSource(24))
		var pa, pb [][32]int32
		width := func() int {
			if w.konst && rng.Intn(4) == 0 {
				return 0
			}
			return w.lo + rng.Intn(w.hi-w.lo+1)
		}
		for i := 0; i < pairs; i++ {
			pa = append(pa, widthDeltas(rng, width()))
			pb = append(pb, widthDeltas(rng, width()))
		}
		sa, sb := append(blockStream(pa...), make([]byte, 8)...), append(blockStream(pb...), make([]byte, 8)...)
		dst := make([]byte, len(sa)+len(sb))
		name := fmt.Sprintf("widths%d-%d", w.lo, w.hi)
		if w.konst {
			name += "-const"
		}
		for _, l := range []simd.Level{level, simd.Portable} {
			path := map[bool]string{true: "dispatched", false: "portable"}[l > simd.Portable]
			b.Run(name+"/"+path, func(b *testing.B) {
				withPath(l, func() {
					b.SetBytes(pairs * 128)
					for i := 0; i < b.N; i++ {
						if r := addPairs(dst, sa, sb, pairs, true); r.err != nil || r.done != pairs {
							b.Fatal(r.done, r.err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pairs, "ns/pair")
				})
			})
		}
	}
}
