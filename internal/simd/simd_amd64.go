package simd

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() uint32

// probe is the highest level the CPU and the OS allow: AVX2 and BMI2 with
// YMM state enabled for AVX2, and on top of those AVX-512 F, DQ, BW and VL
// with opmask and ZMM state enabled for AVX512.
func probe() Level {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return Portable
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx || xgetbv0()&6 != 6 {
		return Portable
	}
	const avx2, bmi2 = 1 << 5, 1 << 8
	_, b, _, _ := cpuid(7, 0)
	if b&(avx2|bmi2) != avx2|bmi2 {
		return Portable
	}
	const avx512 = 1<<16 | 1<<17 | 1<<30 | 1<<31      // F, DQ, BW, VL
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7 // XMM, YMM, opmask, ZMM0–15 upper, ZMM16–31
	if b&avx512 != avx512 || xgetbv0()&zmmState != zmmState {
		return AVX2
	}
	return AVX512
}
