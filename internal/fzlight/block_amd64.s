#include "textflag.h"

// AVX2+BMI2 block kernels for the one shape the collectives use: float32,
// full 32-value blocks. Each kernel does the whole block in registers, all
// code lengths in one body. The portable Go codecs in block.go are the
// definition; these must agree with them byte for byte and bit for bit.
//
// Quantisation rule (quantise in block.go): q = floor(x + 0.5) with
// x = float64(v)·recip — two IEEE roundings, product then sum, never a
// fused multiply-add — and a value is rejected when !(|x| < 2^29).
//
// Block layout: [c][sign word, 4 B][⌊c/8⌋ byte planes of 32 B][4·(c mod 8)
// B: per 8 values, their residual bits packed LSB-first]. Plane k holds
// byte k of every magnitude, so the 32 dwords go through a 32×4 byte
// transpose; the residual of 8 values is one PEXT (PDEP) of their plane
// bytes with mask (2^r−1)·0x0101010101010101.
//
// Memory contract, enforced by the Go wrappers in block_amd64.go: encode
// reads blk[0:32] and writes only inside dst[0:141]; decode writes
// out[0:32] and reads only src[0:need+8], need = 5 + 32⌊c/8⌋ + 4(c mod 8).

DATA f64abs<>+0(SB)/8, $0x7FFFFFFFFFFFFFFF
GLOBL f64abs<>(SB), RODATA|NOPTR, $8
DATA f64lim<>+0(SB)/8, $0x41C0000000000000 // 2^29
GLOBL f64lim<>(SB), RODATA|NOPTR, $8
DATA f64half<>+0(SB)/8, $0x3FE0000000000000
GLOBL f64half<>(SB), RODATA|NOPTR, $8

// dwords 7,0,1,2,3,4,5,6: rotate the lanes up by one
DATA rotUp<>+0(SB)/8, $0x0000000000000007
DATA rotUp<>+8(SB)/8, $0x0000000200000001
DATA rotUp<>+16(SB)/8, $0x0000000400000003
DATA rotUp<>+24(SB)/8, $0x0000000600000005
GLOBL rotUp<>(SB), RODATA|NOPTR, $32

// per 128-bit lane: bytes 0,4,8,12, 1,5,9,13, 2,6,10,14, 3,7,11,15
DATA byteCols<>+0(SB)/8, $0x0D0905010C080400
DATA byteCols<>+8(SB)/8, $0x0F0B07030E0A0602
DATA byteCols<>+16(SB)/8, $0x0D0905010C080400
DATA byteCols<>+24(SB)/8, $0x0F0B07030E0A0602
GLOBL byteCols<>(SB), RODATA|NOPTR, $32

// dwords 0,4,1,5,2,6,3,7: interleave the two 128-bit lanes
DATA mixLanes<>+0(SB)/8, $0x0000000400000000
DATA mixLanes<>+8(SB)/8, $0x0000000500000001
DATA mixLanes<>+16(SB)/8, $0x0000000600000002
DATA mixLanes<>+24(SB)/8, $0x0000000700000003
GLOBL mixLanes<>(SB), RODATA|NOPTR, $32

// dwords 1,2,4,…,128: lane i tests sign bit i
DATA laneBit<>+0(SB)/8, $0x0000000200000001
DATA laneBit<>+8(SB)/8, $0x0000000800000004
DATA laneBit<>+16(SB)/8, $0x0000002000000010
DATA laneBit<>+24(SB)/8, $0x0000008000000040
GLOBL laneBit<>(SB), RODATA|NOPTR, $32

// QUANT quantises blk[off/4 : off/4+8] and leaves the magnitudes of their
// Lorenzo deltas in M. PREV holds, in lane 0, the quantised value before
// this group; NEXT receives the same for the following group. AX collects
// the sign word (rotated into place after four groups), Y11 the lanes that
// fail the range test.
#define QUANT(off, M, PREV, NEXT) \
	VCVTPS2PD off(SI), Y4; \
	VCVTPS2PD off+16(SI), Y5; \
	VMULPD Y15, Y4, Y4; \
	VMULPD Y15, Y5, Y5; \
	VANDPD Y14, Y4, Y6; \
	VANDPD Y14, Y5, Y7; \
	VCMPPD $5, Y13, Y6, Y6; /* !(|x| < 2^29): out of range, NaN or Inf */ \
	VCMPPD $5, Y13, Y7, Y7; \
	VORPD Y6, Y11, Y11; \
	VORPD Y7, Y11, Y11; \
	VADDPD Y12, Y4, Y4; \
	VADDPD Y12, Y5, Y5; \
	VROUNDPD $1, Y4, Y4; /* floor */ \
	VROUNDPD $1, Y5, Y5; \
	VCVTTPD2DQY Y4, X4; \
	VCVTTPD2DQY Y5, X5; \
	VINSERTI128 $1, X5, Y4, Y4; /* q0 … q7 */ \
	VPERMD Y4, Y10, NEXT; /* q7 q0 … q6 */ \
	VPBLENDD $1, PREV, NEXT, Y5; /* q(−1) q0 … q6 */ \
	VPSUBD Y5, Y4, Y4; \
	VMOVMSKPS Y4, BX; \
	ORL BX, AX; \
	RORL $8, AX; \
	VPABSD Y4, M

// func encodeBlock32K(dst *[141]byte, blk *[32]float32, recip float64, qprev int32) (n int, q int32, ok bool)
//
// ok is false when a value fails the range test; dst, n and q are then
// meaningless and the caller re-encodes the block portably.
TEXT ·encodeBlock32K(SB), NOSPLIT, $0-45
	MOVQ dst+0(FP), DI
	MOVQ blk+8(FP), SI
	VBROADCASTSD recip+16(FP), Y15
	MOVL qprev+24(FP), AX
	VMOVD AX, X9
	VBROADCASTSD f64abs<>(SB), Y14
	VBROADCASTSD f64lim<>(SB), Y13
	VBROADCASTSD f64half<>(SB), Y12
	VMOVDQU rotUp<>(SB), Y10
	VPXOR Y11, Y11, Y11
	XORL AX, AX
	QUANT(0, Y0, Y9, Y8)
	QUANT(32, Y1, Y8, Y9)
	QUANT(64, Y2, Y9, Y8)
	QUANT(96, Y3, Y8, Y9)
	VPTEST Y11, Y11
	JNZ encBad
	VMOVD X9, BX // the block's last quantised value
	MOVL BX, q+40(FP)
	MOVB $1, ok+44(FP)

	// c = bit length of the OR of all 32 magnitudes
	VPOR Y1, Y0, Y4
	VPOR Y3, Y2, Y5
	VPOR Y5, Y4, Y4
	VEXTRACTI128 $1, Y4, X5
	VPOR X5, X4, X4
	VMOVQ X4, CX
	VPEXTRQ $1, X4, DX
	ORQ DX, CX
	MOVQ CX, DX
	SHRQ $32, DX
	ORL DX, CX
	JZ encConst
	BSRL CX, CX
	INCL CX
	CMPL CX, $32 // only a qprev beyond ±2^29 gets here; the residual step
	JE encBad    // below assumes c ≤ 31, so leave the block to the caller
	MOVB CX, (DI)
	MOVL AX, 1(DI)

	// 32×4 byte transpose: dword k of each 128-bit lane ← byte k of its four
	// magnitudes, then gather dword k of all eight lanes into plane k.
	VMOVDQU byteCols<>(SB), Y4
	VPSHUFB Y4, Y0, Y0
	VPSHUFB Y4, Y1, Y1
	VPSHUFB Y4, Y2, Y2
	VPSHUFB Y4, Y3, Y3
	VPUNPCKLDQ Y1, Y0, Y4
	VPUNPCKHDQ Y1, Y0, Y5
	VPUNPCKLDQ Y3, Y2, Y6
	VPUNPCKHDQ Y3, Y2, Y7
	VPUNPCKLQDQ Y6, Y4, Y0
	VPUNPCKHQDQ Y6, Y4, Y1
	VPUNPCKLQDQ Y7, Y5, Y2
	VPUNPCKHQDQ Y7, Y5, Y3
	VMOVDQU mixLanes<>(SB), Y4
	VPERMD Y0, Y4, Y0
	VPERMD Y1, Y4, Y1
	VPERMD Y2, Y4, Y2
	VPERMD Y3, Y4, Y3

	// Store the ⌊c/8⌋ whole planes; the next one holds the residual bits.
	MOVL CX, DX
	ANDL $7, DX // r
	SHRL $3, CX // ⌊c/8⌋ ≤ 3
	CMPL CX, $1
	JA encPlanes23
	JE encPlanes1
	VMOVDQA Y0, Y4
	JMP encResidual

encPlanes1:
	VMOVDQU Y0, 5(DI)
	VMOVDQA Y1, Y4
	JMP encResidual

encPlanes23:
	VMOVDQU Y0, 5(DI)
	VMOVDQU Y1, 37(DI)
	CMPL CX, $3
	JE encPlanes3
	VMOVDQA Y2, Y4
	JMP encResidual

encPlanes3:
	VMOVDQU Y2, 69(DI)
	VMOVDQA Y3, Y4

encResidual:
	// Squeeze the residual plane's four qwords to r bytes each. The last
	// 8-byte store ends at most at dst[130] and runs into the slack.
	SHLL $5, CX // 32·⌊c/8⌋
	LEAQ 5(DI)(CX*1), R8
	MOVL $1, R9
	SHLXQ DX, R9, R9
	DECQ R9
	MOVQ $0x0101010101010101, R10
	IMULQ R10, R9
	VMOVQ X4, R10
	VPEXTRQ $1, X4, R11
	VEXTRACTI128 $1, Y4, X4
	VMOVQ X4, R12
	VPEXTRQ $1, X4, R13
	PEXTQ R9, R10, R10
	PEXTQ R9, R11, R11
	PEXTQ R9, R12, R12
	PEXTQ R9, R13, R13
	MOVQ R10, (R8)
	ADDQ DX, R8
	MOVQ R11, (R8)
	ADDQ DX, R8
	MOVQ R12, (R8)
	ADDQ DX, R8
	MOVQ R13, (R8)
	LEAQ 5(CX)(DX*4), AX
	MOVQ AX, n+32(FP)
	VZEROUPPER
	RET

encConst:
	MOVB $0, (DI)
	MOVQ $1, n+32(FP)
	VZEROUPPER
	RET

encBad:
	MOVQ $0, n+32(FP)
	MOVL $0, q+40(FP)
	MOVB $0, ok+44(FP)
	VZEROUPPER
	RET

// DEQUANT turns the eight magnitudes in M (MX its low half) into deltas
// with the low eight bits of the sign word in Y8, prefix-sums them onto the
// accumulator broadcast in Y9, leaves the new accumulator there, and stores
// float32(eb2·float64(q)) to out[off/4 : off/4+8].
#define DEQUANT(off, M, MX) \
	VPAND Y11, Y8, Y12; \
	VPCMPEQD Y11, Y12, Y12; /* −1 where the lane's sign bit is set */ \
	VPSRLD $8, Y8, Y8; \
	VPXOR Y12, M, M; \
	VPSUBD Y12, M, M; /* (m ^ s) − s */ \
	VPSLLDQ $4, M, Y12; \
	VPADDD Y12, M, M; \
	VPSLLDQ $8, M, Y12; \
	VPADDD Y12, M, M; /* prefix sums inside each 128-bit lane */ \
	VPSHUFD $0xFF, M, Y12; \
	VPERM2I128 $0x08, Y12, Y12, Y12; /* 0 | low lane's total */ \
	VPADDD Y12, M, M; \
	VPADDD Y9, M, M; \
	VPERMD M, Y10, Y9; /* broadcast lane 7 */ \
	VCVTDQ2PD MX, Y12; \
	VEXTRACTI128 $1, M, X13; \
	VCVTDQ2PD X13, Y13; \
	VMULPD Y15, Y12, Y12; \
	VMULPD Y15, Y13, Y13; \
	VCVTPD2PSY Y12, X12; \
	VCVTPD2PSY Y13, X13; \
	VMOVUPS X12, off(DI); \
	VMOVUPS X13, off+16(DI)

// func decodeBlock32K(out *[32]float32, src *byte, c int, acc int32, eb2 float64) int32
//
// src points at the block's marker byte; the caller has checked 1 ≤ c ≤ 30
// and that need+8 bytes are readable. Returns the new accumulator.
TEXT ·decodeBlock32K(SB), NOSPLIT, $0-44
	MOVQ out+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ c+16(FP), CX
	VBROADCASTSD eb2+32(FP), Y15
	MOVL acc+24(FP), AX
	VMOVD AX, X9
	VPBROADCASTD X9, Y9
	VPBROADCASTD 1(SI), Y8 // sign word
	VMOVDQU laneBit<>(SB), Y11
	VPCMPEQD Y10, Y10, Y10
	VPSRLD $29, Y10, Y10 // dwords 7,7,…,7

	// Residual plane: spread r bytes back to the low r bits of 8 bytes, four
	// times. The last load ends at most at src[need+8−r].
	MOVL CX, DX
	ANDL $7, DX // r
	SHRL $3, CX // ⌊c/8⌋
	MOVL CX, R8
	SHLL $5, R8
	LEAQ 5(SI)(R8*1), R8
	MOVL $1, R9
	SHLXQ DX, R9, R9
	DECQ R9
	MOVQ $0x0101010101010101, R10
	IMULQ R10, R9
	MOVQ (R8), R10
	ADDQ DX, R8
	MOVQ (R8), R11
	ADDQ DX, R8
	MOVQ (R8), R12
	ADDQ DX, R8
	MOVQ (R8), R13
	PDEPQ R9, R10, R10
	PDEPQ R9, R11, R11
	PDEPQ R9, R12, R12
	PDEPQ R9, R13, R13
	VMOVQ R10, X4
	VPINSRQ $1, R11, X4, X4
	VMOVQ R12, X5
	VPINSRQ $1, R13, X5, X5
	VINSERTI128 $1, X5, Y4, Y4

	// Y0…Y3 ← planes 0…3: stored ones below ⌊c/8⌋, the residual at it, zero above.
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	CMPL CX, $1
	JA decPlanes23
	JE decPlanes1
	VMOVDQA Y4, Y0
	JMP decUnpack

decPlanes1:
	VMOVDQU 5(SI), Y0
	VMOVDQA Y4, Y1
	JMP decUnpack

decPlanes23:
	VMOVDQU 5(SI), Y0
	VMOVDQU 37(SI), Y1
	CMPL CX, $3
	JE decPlanes3
	VMOVDQA Y4, Y2
	JMP decUnpack

decPlanes3:
	VMOVDQU 69(SI), Y2
	VMOVDQA Y4, Y3

decUnpack:
	// Inverse transpose: bytes → words → dwords, then regroup the 128-bit
	// lanes so Y4…Y7 hold values 0–7, 8–15, 16–23, 24–31.
	VPUNPCKLBW Y1, Y0, Y4
	VPUNPCKHBW Y1, Y0, Y5
	VPUNPCKLBW Y3, Y2, Y6
	VPUNPCKHBW Y3, Y2, Y7
	VPUNPCKLWD Y6, Y4, Y0 // 0–3 | 16–19
	VPUNPCKHWD Y6, Y4, Y1 // 4–7 | 20–23
	VPUNPCKLWD Y7, Y5, Y2 // 8–11 | 24–27
	VPUNPCKHWD Y7, Y5, Y3 // 12–15 | 28–31
	VPERM2I128 $0x20, Y1, Y0, Y4
	VPERM2I128 $0x20, Y3, Y2, Y5
	VPERM2I128 $0x31, Y1, Y0, Y6
	VPERM2I128 $0x31, Y3, Y2, Y7
	DEQUANT(0, Y4, X4)
	DEQUANT(32, Y5, X5)
	DEQUANT(64, Y6, X6)
	DEQUANT(96, Y7, X7)
	VMOVD X9, AX
	MOVL AX, ret+40(FP)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32 — the low half of XCR0
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
