package fzlight

import (
	"bytes"
	"math/rand"
	"testing"

	"hzccl/internal/datasets"
	"hzccl/internal/metrics"
)

// encodeWidthBlock builds an encoded 32-element block whose code length is
// exactly c (0 forces all-zero deltas), returning the encoded bytes.
func encodeWidthBlock(t *testing.T, rng *rand.Rand, c int) []byte {
	t.Helper()
	var p [32]int32
	if c > 0 {
		mask := uint32(1)<<uint(c) - 1
		for i := range p {
			m := rng.Uint32() & mask
			if rng.Intn(2) == 1 {
				p[i] = -int32(m)
			} else {
				p[i] = int32(m)
			}
		}
		// Pin one element to the full width so c is tight.
		p[rng.Intn(32)] = int32(uint32(1) << uint(c-1))
	}
	scratch := make([]uint32, 32)
	dst := make([]byte, 1+4+32*4+8)
	n := EncodeBlock(dst, p[:], scratch)
	return dst[:n]
}

// legacySum is the reference reduction: decode both blocks, add in int64,
// re-encode. It is the semantics every fused kernel must reproduce
// byte-for-byte.
func legacySum(t *testing.T, sa, sb []byte) (out []byte, overflow bool) {
	t.Helper()
	var pa, pb [32]int32
	scratch := make([]uint32, 32)
	if _, err := DecodeBlock(sa, pa[:], scratch); err != nil {
		t.Fatalf("reference decode a: %v", err)
	}
	if _, err := DecodeBlock(sb, pb[:], scratch); err != nil {
		t.Fatalf("reference decode b: %v", err)
	}
	for i := range pa {
		s := int64(pa[i]) + int64(pb[i])
		if s > 1<<31-1 || s < -(1<<31) {
			return nil, true
		}
		pa[i] = int32(s)
	}
	dst := make([]byte, 1+4+32*4+8)
	n := EncodeBlock(dst, pa[:], scratch)
	return dst[:n], false
}

func checkFusedPair(t *testing.T, sa, sb []byte, ctx string) {
	t.Helper()
	want, wantOverflow := legacySum(t, sa, sb)
	dst := make([]byte, len(sa)+len(sb)+16)
	wrote, usedA, usedB, overflow, err := sumPair(dst, sa, sb)
	if err != nil {
		t.Fatalf("%s: sumPair: %v", ctx, err)
	}
	if overflow != wantOverflow {
		t.Fatalf("%s: overflow %v, want %v", ctx, overflow, wantOverflow)
	}
	if wantOverflow {
		return
	}
	if usedA != len(sa) || usedB != len(sb) {
		t.Fatalf("%s: consumed %d/%d bytes, want %d/%d", ctx, usedA, usedB, len(sa), len(sb))
	}
	if wrote != len(want) || !bytes.Equal(dst[:wrote], want) {
		t.Fatalf("%s: fused output differs from legacy\n got % x\nwant % x", ctx, dst[:wrote], want)
	}
	// Exactly-sized dst must produce the same bytes through the bounce
	// paths without writing out of bounds.
	exact := make([]byte, len(want))
	wrote, _, _, _, err = sumPair(exact, sa, sb)
	if err != nil {
		t.Fatalf("%s: exact-dst sumPair: %v", ctx, err)
	}
	if wrote != len(want) || !bytes.Equal(exact, want) {
		t.Fatalf("%s: exact-dst output differs from legacy", ctx)
	}
	// With 8 bytes behind each operand the SIMD kernel, where the CPU has
	// it, takes the pair (the suite's second pass runs this portably too).
	wrote, usedA, usedB, _, err = sumPair(dst, padded(sa), padded(sb))
	if err != nil || usedA != len(sa) || usedB != len(sb) || wrote != len(want) || !bytes.Equal(dst[:wrote], want) {
		t.Fatalf("%s: padded operands: err %v, consumed %d/%d, output\n got % x\nwant % x", ctx, err, usedA, usedB, dst[:wrote], want)
	}
}

// sumPair adds one block pair as hzdyn does in its static mode, where
// every pair is pipeline ④: the kernel where it takes the pair, SumPair32
// where it does not.
func sumPair(dst, sa, sb []byte) (wrote, usedA, usedB int, overflow bool, err error) {
	r := addPairs(dst, sa, sb, 1, false)
	return r.wrote, r.usedA, r.usedB, r.overflow, r.err
}

// padded copies s with 8 zero bytes behind it, the slack the SIMD add
// kernel asks for.
func padded(s []byte) []byte {
	return append(append(make([]byte, 0, len(s)+8), s...), make([]byte, 8)...)
}

// TestSumBlocks32WidthSweep pins the fused pipeline-④ kernels (SIMD kernel,
// SWAR narrow add, word cores, wide checked fallback) against the
// decode-add-encode reference for every operand width pair 0..32.
func TestSumBlocks32WidthSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for ca := 0; ca <= 32; ca++ {
		for cb := 0; cb <= 32; cb++ {
			for trial := 0; trial < 4; trial++ {
				sa := encodeWidthBlock(t, rng, ca)
				sb := encodeWidthBlock(t, rng, cb)
				checkFusedPair(t, sa, sb, "width sweep")
			}
		}
	}
}

// TestSumBlocks32Datasets walks every block pair of the five paper
// datasets' compressed Table V operands through the fused kernel and the
// legacy reference, requiring byte-identical output. This is the
// conformance anchor for the fused bitplane pipeline: the exact streams
// the benchmarks reduce are re-reduced block by block.
func TestSumBlocks32Datasets(t *testing.T) {
	const n = 1 << 14
	for _, name := range datasets.Names() {
		va, vb, err := datasets.Pair(name, n)
		if err != nil {
			t.Fatal(err)
		}
		p := Params{ErrorBound: metrics.AbsBound(1e-3, va)}
		ca, err := Compress(va, p)
		if err != nil {
			t.Fatalf("%s: compress a: %v", name, err)
		}
		cb, err := Compress(vb, p)
		if err != nil {
			t.Fatalf("%s: compress b: %v", name, err)
		}
		ha, err := ParseHeaderLite(ca)
		if err != nil {
			t.Fatal(err)
		}
		B := ha.BlockSize
		if B != 32 {
			t.Fatalf("%s: block size %d, want 32", name, B)
		}
		// Single chunk: payload is outlier + block sequence.
		oa := ha.PayloadStart() + 4
		ob := oa
		pairs := 0
		for base := 0; base < ha.DataLen; base += B {
			bn := B
			if base+bn > ha.DataLen {
				bn = ha.DataLen - base
			}
			sa, err := BlockBytes(ca[oa:], bn)
			if err != nil {
				t.Fatalf("%s: block walk a: %v", name, err)
			}
			sb, err := BlockBytes(cb[ob:], bn)
			if err != nil {
				t.Fatalf("%s: block walk b: %v", name, err)
			}
			if bn == 32 {
				checkFusedPair(t, ca[oa:oa+sa], cb[ob:ob+sb], name)
				pairs++
			}
			oa += sa
			ob += sb
		}
		if pairs == 0 {
			t.Fatalf("%s: no full blocks checked", name)
		}
	}
}

// FuzzFusedAdd feeds arbitrary delta blocks through the fused kernel and
// the legacy reference. The committed seeds cover the overflow and
// width-growth edges: operand widths at the SWAR/scalar boundary (6/7),
// the scalar/wide boundary (30/31) and full-width 31+31 sums that must
// trip the overflow flag.
func FuzzFusedAdd(f *testing.F) {
	mk := func(fill int32) []byte {
		var p [32]int32
		for i := range p {
			if i%2 == 0 {
				p[i] = fill
			} else {
				p[i] = -fill
			}
		}
		scratch := make([]uint32, 32)
		dst := make([]byte, 1+4+32*4+8)
		n := EncodeBlock(dst, p[:], scratch)
		return dst[:n]
	}
	// SWAR boundary: 6-bit and 7-bit operands.
	f.Add(mk(63), mk(63))
	f.Add(mk(63), mk(64))
	f.Add(mk(64), mk(64))
	// Scalar/wide boundary: 30-bit and 31-bit operands.
	f.Add(mk(1<<29), mk(1<<29))
	f.Add(mk(1<<30), mk(1<<29))
	// Width growth across the top: 31-bit + 31-bit overflows int32.
	f.Add(mk(1<<30+1<<29), mk(1<<30+1<<29))
	// Zero against everything.
	f.Add(mk(0), mk(1<<30))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		decode := func(raw []byte) []byte {
			var p [32]int32
			for i := range p {
				var v uint32
				for j := 0; j < 4; j++ {
					k := 4*i + j
					if k < len(raw) {
						v |= uint32(raw[k]) << uint(8*j)
					}
				}
				p[i] = int32(v)
				if p[i] == -(1 << 31) {
					p[i]++ // |min int32| is not representable in sign/magnitude
				}
			}
			scratch := make([]uint32, 32)
			dst := make([]byte, 1+4+32*4+8)
			n := EncodeBlock(dst, p[:], scratch)
			return dst[:n]
		}
		sa, sb := decode(rawA), decode(rawB)
		want, wantOverflow := fuzzLegacySum(sa, sb)
		dst := make([]byte, len(sa)+len(sb)+16)
		wrote, usedA, usedB, overflow, err := sumPair(dst, sa, sb)
		if err != nil {
			t.Fatalf("sumPair: %v", err)
		}
		if overflow != wantOverflow {
			t.Fatalf("overflow %v, want %v", overflow, wantOverflow)
		}
		if wantOverflow {
			return
		}
		if usedA != len(sa) || usedB != len(sb) {
			t.Fatalf("consumed %d/%d, want %d/%d", usedA, usedB, len(sa), len(sb))
		}
		if wrote != len(want) || !bytes.Equal(dst[:wrote], want) {
			t.Fatalf("fused output differs from legacy\n got % x\nwant % x", dst[:wrote], want)
		}
		// Again with the slack that lets the SIMD kernel take the pair.
		wrote, usedA, usedB, _, err = sumPair(dst, padded(sa), padded(sb))
		if err != nil || usedA != len(sa) || usedB != len(sb) || wrote != len(want) || !bytes.Equal(dst[:wrote], want) {
			t.Fatalf("padded operands: err %v, consumed %d/%d\n got % x\nwant % x", err, usedA, usedB, dst[:wrote], want)
		}
	})
}

// fuzzLegacySum is legacySum without the testing.T plumbing (fuzz targets
// get a fresh *T per input).
func fuzzLegacySum(sa, sb []byte) (out []byte, overflow bool) {
	var pa, pb [32]int32
	scratch := make([]uint32, 32)
	if _, err := DecodeBlock(sa, pa[:], scratch); err != nil {
		panic(err)
	}
	if _, err := DecodeBlock(sb, pb[:], scratch); err != nil {
		panic(err)
	}
	for i := range pa {
		s := int64(pa[i]) + int64(pb[i])
		if s > 1<<31-1 || s < -(1<<31) {
			return nil, true
		}
		pa[i] = int32(s)
	}
	dst := make([]byte, 1+4+32*4+8)
	n := EncodeBlock(dst, pa[:], scratch)
	return dst[:n], false
}
