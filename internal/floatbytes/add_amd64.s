#include "textflag.h"

// AddInto's kernel: dst[i] += src[i] over n floats, n a positive multiple
// of 32, 128 bytes an iteration. It runs at either SIMD level, as fzlight's
// homomorphic add kernel does: no measurement has shown a 16-lane add ahead.
// A lane rounds as the scalar ADDSS does, and src is the first operand of
// every VADDPS, as it is of the ADDSS the word-wise loop compiles to (the
// wire value in a register, dst added from memory): the bits are that
// loop's, a NaN meeting a NaN keeping src's payload included.
// TestSpecialPairs pins them.

// func addRunAVX2(dst *float32, src *byte, n int)
TEXT ·addRunAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	LEAQ (DI)(CX*4), CX // the end of dst

add256Loop:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	VADDPS (DI), Y0, Y0
	VADDPS 32(DI), Y1, Y1
	VADDPS 64(DI), Y2, Y2
	VADDPS 96(DI), Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	CMPQ DI, CX
	JB add256Loop
	VZEROUPPER
	RET
