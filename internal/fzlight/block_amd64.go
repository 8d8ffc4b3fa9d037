package fzlight

// Go side of the block kernels in block_amd64.s: their signatures and the
// CPU test that selects them. The wrappers that keep them inside their
// slices are in block.go.

//go:noescape
func encodeRun32K(dst *byte, src *float32, dstLen, blocks int, recip float64, qprev int32) (wrote, done int, q int32)

//go:noescape
func decodeRun32K(out *float32, src *byte, srcLen, blocks int, acc int32, eb2 float64) (used, done int, newAcc int32)

//go:noescape
func sumRun32K(dst, a, b *byte, dstLen, aLen, bLen, pairs int, dynamic bool, tally *[5]int64) (wrote, usedA, usedB, done int)

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
