package fzlight

// Go side of the block kernels in block_amd64.s: their signatures and the
// CPU test that selects their level. The wrappers that keep them inside
// their slices are in block.go.

//go:noescape
func encodeRun32K(dst *byte, src *float32, dstLen, blocks int, recip float64, qprev int32) (wrote, done int, q int32)

//go:noescape
func decodeRun32K(out *float32, src *byte, srcLen, blocks int, acc int32, eb2 float64) (used, done int, newAcc int32)

//go:noescape
func encodeRun32K512(dst *byte, src *float32, dstLen, blocks int, recip float64, qprev int32) (wrote, done int, q int32)

//go:noescape
func decodeRun32K512(out *float32, src *byte, srcLen, blocks int, acc int32, eb2 float64) (used, done int, newAcc int32)

//go:noescape
func sumRun32K(dst, a, b *byte, dstLen, aLen, bLen, pairs int, dynamic bool, tally *[5]int64) (wrote, usedA, usedB, done int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() uint32

// cpuLevel is the highest kernel level the CPU and the OS allow: AVX2 and
// BMI2 with YMM state enabled for levelAVX2, and on top of those AVX-512
// F, DQ, BW and VL with opmask and ZMM state enabled for levelAVX512.
func cpuLevel() kernelLevel {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return levelPortable
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx || xgetbv0()&6 != 6 {
		return levelPortable
	}
	const avx2, bmi2 = 1 << 5, 1 << 8
	_, b, _, _ := cpuid(7, 0)
	if b&(avx2|bmi2) != avx2|bmi2 {
		return levelPortable
	}
	const avx512 = 1<<16 | 1<<17 | 1<<30 | 1<<31      // F, DQ, BW, VL
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7 // XMM, YMM, opmask, ZMM0–15 upper, ZMM16–31
	if b&avx512 != avx512 || xgetbv0()&zmmState != zmmState {
		return levelAVX2
	}
	return levelAVX512
}
