#include "textflag.h"

// Range's kernel: four YMM accumulators each for the minimum and the
// maximum, 32 floats an iteration, at either SIMD level (the pass is bound
// by memory). The value is the first source of every VMINPS/VMAXPS and the
// accumulator the second, so a lane keeps its accumulator unless the value
// is strictly below (above) it — a NaN value, or a zero beside a zero,
// changes nothing: `if v < lo { lo = v }`, lane by lane.

// func minMaxRunAVX2(data *float32, n int, lo, hi *[8]float32)
TEXT ·minMaxRunAVX2(SB), NOSPLIT, $0-32
	MOVQ data+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ lo+16(FP), AX
	MOVQ hi+24(FP), BX
	LEAQ (SI)(CX*4), CX // the end of data
	VMOVUPS (AX), Y0
	VMOVUPS Y0, Y1
	VMOVUPS Y0, Y2
	VMOVUPS Y0, Y3
	VMOVUPS (BX), Y4
	VMOVUPS Y4, Y5
	VMOVUPS Y4, Y6
	VMOVUPS Y4, Y7

minMaxLoop:
	VMOVUPS (SI), Y8
	VMOVUPS 32(SI), Y9
	VMOVUPS 64(SI), Y10
	VMOVUPS 96(SI), Y11
	VMINPS Y0, Y8, Y0
	VMINPS Y1, Y9, Y1
	VMINPS Y2, Y10, Y2
	VMINPS Y3, Y11, Y3
	VMAXPS Y4, Y8, Y4
	VMAXPS Y5, Y9, Y5
	VMAXPS Y6, Y10, Y6
	VMAXPS Y7, Y11, Y7
	ADDQ $128, SI
	CMPQ SI, CX
	JB minMaxLoop

	// The accumulators started equal, and a NaN never enters one that is
	// not already NaN, so folding them keeps the same rule.
	VMINPS Y0, Y1, Y0
	VMINPS Y0, Y2, Y0
	VMINPS Y0, Y3, Y0
	VMAXPS Y4, Y5, Y4
	VMAXPS Y4, Y6, Y4
	VMAXPS Y4, Y7, Y4
	VMOVUPS Y0, (AX)
	VMOVUPS Y4, (BX)
	VZEROUPPER
	RET
