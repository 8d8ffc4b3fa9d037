package fzlight

// Go side of the block kernels in block_amd64.s: the CPU test that selects
// them and the wrappers that keep them inside their slices.

//go:noescape
func encodeBlock32K(dst *[kernelDst]byte, blk *[32]float32, recip float64, qprev int32) (n int, q int32, ok bool)

//go:noescape
func decodeBlock32K(out *[32]float32, src *byte, c int, acc int32, eb2 float64) int32

//go:noescape
func sumBlocks32K(dst, a, b *byte, dstLen, aLen, bLen, pairs int) (wrote, usedA, usedB, done int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() uint32

// haveKernels reports AVX2 and BMI2 with YMM state enabled by the OS.
func haveKernels() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx || xgetbv0()&6 != 6 {
		return false
	}
	const avx2, bmi2 = 1 << 5, 1 << 8
	_, b, _, _ := cpuid(7, 0)
	return b&(avx2|bmi2) == avx2|bmi2
}

// encodeBlock32Fast encodes one full block with the kernel. ok is false,
// and nothing the caller keeps has changed, when dst is shorter than
// kernelDst or a value is out of range or not finite: the portable encoder
// then takes the block and names the first offending value's error.
func encodeBlock32Fast(dst []byte, blk []float32, recip float64, qprev int32) (n int, q int32, ok bool) {
	if len(dst) < kernelDst {
		return 0, 0, false
	}
	return encodeBlock32K((*[kernelDst]byte)(dst), (*[32]float32)(blk), recip, qprev)
}

// decodeBlock32Fast decodes the full block at src[0] onto acc. Constant
// blocks are filled here; code lengths 1–30 take the kernel when 8 bytes
// past the block are readable. ok is false for everything else — empty or
// truncated input, markers above 30, the stream's last block — which the
// portable decoder validates and decodes.
func decodeBlock32Fast(src []byte, out []float32, acc int32, eb2 float64) (used int, newAcc int32, ok bool) {
	if len(src) == 0 {
		return 0, acc, false
	}
	o := (*[32]float32)(out)
	c := int(src[0])
	if c == 0 {
		v := float32(eb2 * float64(acc))
		for i := 0; i < 32; i += 8 {
			g := (*[8]float32)(o[i:])
			g[0], g[1], g[2], g[3], g[4], g[5], g[6], g[7] = v, v, v, v, v, v, v, v
		}
		return 1, acc, true
	}
	need := 5 + 32*(c>>3) + 4*(c&7)
	if c > 30 || len(src) < need+8 {
		return 0, acc, false
	}
	return need, decodeBlock32K(o, &src[0], c, acc, eb2), true
}

// kernelRun caps the block pairs handed to one sumBlocks32K call: assembly
// cannot be preempted, and 1024 pairs keep a call near 30 µs.
const kernelRun = 1024

// sumBlocks32Fast adds up to pairs consecutive full block pairs of a and b
// into dst with the kernel and reports how far it got. It stops in front of
// the first pair outside the kernel's contract — a marker that is 0 or
// above 30, a sum of code length 31, or fewer than 8 bytes of slack behind
// a block in a, b or dst — and everything up to dst[wrote] is final; the
// portable SumBlocks32 body takes it from there.
func sumBlocks32Fast(dst, a, b []byte, pairs int) (wrote, usedA, usedB, done int) {
	// A pair the kernel took left 8 bytes behind it on all three sides, so
	// the slices below are never empty after the first call.
	for done < pairs && wrote < len(dst) && usedA < len(a) && usedB < len(b) {
		run := min(pairs-done, kernelRun)
		w, ua, ub, k := sumBlocks32K(&dst[wrote], &a[usedA], &b[usedB], len(dst)-wrote, len(a)-usedA, len(b)-usedB, run)
		wrote, usedA, usedB, done = wrote+w, usedA+ua, usedB+ub, done+k
		if k < run {
			break
		}
	}
	return wrote, usedA, usedB, done
}
