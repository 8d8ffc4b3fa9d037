package fzlight

// The SIMD add kernel against the portable pipeline ④ it must reproduce:
// bytes written, bytes consumed from each operand, pairs done, output bytes
// and typed errors, on runs of block pairs.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
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
	// int32-edge deltas: ±(2^30−1) at width 30, ±(2^31−1) beyond it, and the
	// overflow of two of those.
	const e30, e31 = 1<<30 - 1, math.MaxInt32
	add(blockStream(fillDeltas(e30, -e30), fillDeltas(e30, e30)), blockStream(fillDeltas(e30, -e30), fillDeltas(-e30, -e30)))
	add(blockStream(lead, fillDeltas(e31, -e31)), blockStream(lead, fillDeltas(-e31, e31)))
	add(blockStream(lead, fillDeltas(e31, -e31)), blockStream(lead, fillDeltas(e31, 1)))
	// Truncated operands: a run that ends inside a block, on either side, and
	// one that ends inside the 8 bytes of slack the kernel asks for.
	full := blockStream(lead, widthDeltas(rng, 9), widthDeltas(rng, 17), trail)
	for _, cut := range []int{1, 4, 7, 8, 9, 30} {
		add(full[:len(full)-cut], full)
		add(full, full[:len(full)-cut])
	}
	add(nil, full)
	add([]byte{33, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}, full)
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
	overflow                  bool
	err                       error
	out                       []byte
}

func sumRun(kernels bool, a, b []byte, pairs int) (r sumResult) {
	withPath(kernels, func() {
		var sc SumScratch32
		dst := make([]byte, len(a)+len(b)+16)
		r.wrote, r.usedA, r.usedB, r.done, r.overflow, r.err = SumBlocks32(dst, a, b, pairs, &sc)
		r.out = dst[:r.wrote]
	})
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

// diffSum runs one operand pair through SumBlocks32 on both paths, then
// through the kernel alone, and fails on any difference, on a pair the
// kernel refuses inside its contract, and on a byte touched outside it.
func diffSum(t *testing.T, a, b []byte) {
	t.Helper()
	pairs := max(1, min(wholeBlocks(a), wholeBlocks(b)))
	want := sumRun(false, a, b, pairs)
	if want.err != nil && !errors.Is(want.err, ErrCorrupt) {
		t.Fatalf("portable: untyped error %v", want.err)
	}
	if !haveKernels() {
		return
	}
	got := sumRun(true, a, b, pairs)
	if got.wrote != want.wrote || got.usedA != want.usedA || got.usedB != want.usedB || got.done != want.done ||
		got.overflow != want.overflow || errors.Is(got.err, ErrCorrupt) != errors.Is(want.err, ErrCorrupt) ||
		(got.err == nil) != (want.err == nil) || !bytes.Equal(got.out, want.out) {
		t.Fatalf("kernels: wrote=%d usedA=%d usedB=%d done=%d overflow=%v err=%v % x\nportable: wrote=%d usedA=%d usedB=%d done=%d overflow=%v err=%v % x",
			got.wrote, got.usedA, got.usedB, got.done, got.overflow, got.err, got.out,
			want.wrote, want.usedA, want.usedB, want.done, want.overflow, want.err, want.out)
	}

	// The kernel alone: a prefix of the portable run, stopped for a reason.
	dst, intact := canary(len(a) + len(b) + 16)
	w, ua, ub, k := sumBlocks32Fast(dst, a, b, pairs)
	if !intact(w + 8) {
		t.Fatalf("kernel wrote past dst[%d+8] (done=%d)", w, k)
	}
	if k > pairs {
		t.Fatalf("kernel did %d pairs of %d", k, pairs)
	}
	if k > 0 {
		ref := sumRun(false, a, b, k)
		if ref.err != nil || ref.done != k || w != ref.wrote || ua != ref.usedA || ub != ref.usedB || !bytes.Equal(dst[:w], ref.out) {
			t.Fatalf("kernel alone: wrote=%d usedA=%d usedB=%d done=%d % x\nportable: wrote=%d usedA=%d usedB=%d done=%d err=%v % x",
				w, ua, ub, k, dst[:w], ref.wrote, ref.usedA, ref.usedB, ref.done, ref.err, ref.out)
		}
	}
	if k < pairs {
		need := func(s []byte) int { // the block's size if the kernel may take it
			if len(s) == 0 || s[0] == 0 || s[0] > 30 {
				return -1
			}
			return 5 + 32*int(s[0]>>3) + 4*int(s[0]&7)
		}
		na, nb := need(a[ua:]), need(b[ub:])
		if na > 0 && nb > 0 && len(a)-ua >= na+8 && len(b)-ub >= nb+8 {
			next := sumRun(false, a[ua:], b[ub:], 1)
			if next.err == nil && next.out[0] != 31 && len(dst)-w >= next.wrote+8 {
				t.Fatalf("kernel refused pair %d inside its contract (markers %d, %d → %d)", k, a[ua], b[ub], next.out[0])
			}
		}
	}
	if k == 0 {
		return
	}
	// One byte short of the slack behind the last block, in dst, a and b in
	// turn: the kernel must stop one pair earlier and stay inside.
	short, intact := canary(w + 7)
	if w2, _, _, k2 := sumBlocks32Fast(short, a, b, k); k2 != k-1 || !bytes.Equal(short[:w2], dst[:w2]) || !intact(w2+8) {
		t.Fatalf("dst %d bytes past the last block: kernel did %d pairs of %d (intact %v)", 7, k2, k, intact(w2+8))
	}
	for side, s := range [2][]byte{a[: ua+7 : ua+7], b[: ub+7 : ub+7]} {
		full, intact := canary(len(dst))
		x, y := s, b
		if side == 1 {
			x, y = a, s
		}
		if w2, _, _, k2 := sumBlocks32Fast(full, x, y, k); k2 != k-1 || !bytes.Equal(full[:w2], dst[:w2]) || !intact(w2+8) {
			t.Fatalf("operand %d ends 7 bytes past its last block: kernel did %d pairs of %d", side, k2, k)
		}
	}
}

func TestSumKernelMatchesPortable(t *testing.T) {
	for _, s := range sumSeeds() {
		diffSum(t, s[0], s[1])
	}
	// Random runs: mixed widths, some constant blocks, some noise.
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 2000; i++ {
		var blocks [2][][32]int32
		n := 1 + rng.Intn(6)
		base := rng.Intn(31)
		for side := range blocks {
			for j := 0; j < n; j++ {
				c := base + rng.Intn(3) - 1
				switch rng.Intn(10) {
				case 0:
					c = 0
				case 1:
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

// The kernel must take what it was built for: a run of ordinary pairs with
// slack behind it is one call.
func TestSumKernelTakesWholeRuns(t *testing.T) {
	needKernels(t)
	rng := rand.New(rand.NewSource(23))
	for c := 1; c <= 29; c++ {
		var pa, pb [][32]int32
		for i := 0; i < 9; i++ {
			pa = append(pa, widthDeltas(rng, c))
			pb = append(pb, widthDeltas(rng, 1+rng.Intn(c)))
		}
		a, b := append(blockStream(pa...), make([]byte, 8)...), append(blockStream(pb...), make([]byte, 8)...)
		dst := make([]byte, len(a)+len(b))
		if _, ua, ub, k := sumBlocks32Fast(dst, a, b, 9); k != 9 || ua != len(a)-8 || ub != len(b)-8 {
			t.Fatalf("width %d: kernel did %d pairs of 9 (used %d/%d of %d/%d)", c, k, ua, ub, len(a)-8, len(b)-8)
		}
	}
}

// A run longer than one kernel call (the wrapper feeds the kernel a bounded
// number of pairs at a time) comes out whole and identical.
func TestSumKernelLongRun(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	const pairs = 2500
	var pa, pb [][32]int32
	for i := 0; i < pairs; i++ {
		pa = append(pa, widthDeltas(rng, 4+rng.Intn(6)))
		pb = append(pb, widthDeltas(rng, 4+rng.Intn(6)))
	}
	a, b := append(blockStream(pa...), make([]byte, 8)...), append(blockStream(pb...), make([]byte, 8)...)
	want, got := sumRun(false, a, b, pairs), sumRun(true, a, b, pairs)
	if want.err != nil || want.done != pairs || got.done != pairs || got.usedA != want.usedA || got.usedB != want.usedB || !bytes.Equal(got.out, want.out) {
		t.Fatalf("portable: done=%d err=%v %d bytes; dispatched: done=%d err=%v %d bytes", want.done, want.err, len(want.out), got.done, got.err, len(got.out))
	}
	if haveKernels() {
		if _, _, _, k := sumBlocks32Fast(make([]byte, len(a)+len(b)), a, b, pairs); k != pairs {
			t.Fatalf("kernel did %d pairs of %d", k, pairs)
		}
	}
}

// FuzzSumKernel is the differential fuzz target: any two byte strings, read
// as block streams, must come out of the kernel and the portable pipeline ④
// identically.
func FuzzSumKernel(f *testing.F) {
	for _, s := range sumSeeds() {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b []byte) { diffSum(t, a, b) })
}

// BenchmarkSumRun is pipeline ④ alone on a run of pairs, as dispatched and
// on the portable path. Each operand block draws its width from [lo, hi]:
// 2–3 and 5–6 (CESM-ATM-like; the portable SWAR add, the kernel's byte
// lane), 8 and 16 (whole byte planes, no residual), 9–10 (the kernel's
// dword body).
func BenchmarkSumRun(b *testing.B) {
	const pairs = 4096
	for _, w := range [][2]int{{2, 3}, {5, 6}, {8, 8}, {9, 10}, {16, 16}} {
		lo, hi := w[0], w[1]
		rng := rand.New(rand.NewSource(24))
		var pa, pb [][32]int32
		for i := 0; i < pairs; i++ {
			pa = append(pa, widthDeltas(rng, lo+rng.Intn(hi-lo+1)))
			pb = append(pb, widthDeltas(rng, lo+rng.Intn(hi-lo+1)))
		}
		sa, sb := append(blockStream(pa...), make([]byte, 8)...), append(blockStream(pb...), make([]byte, 8)...)
		dst := make([]byte, len(sa)+len(sb))
		var sc SumScratch32
		for _, kernels := range []bool{true, false} {
			path := map[bool]string{true: "dispatched", false: "portable"}[kernels]
			b.Run(fmt.Sprintf("widths%d-%d/%s", lo, hi, path), func(b *testing.B) {
				withPath(kernels, func() {
					b.SetBytes(pairs * 128)
					for i := 0; i < b.N; i++ {
						if _, _, _, done, _, err := SumBlocks32(dst, sa, sb, pairs, &sc); err != nil || done != pairs {
							b.Fatal(done, err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pairs, "ns/pair")
				})
			})
		}
	}
}
