#include "textflag.h"

// AVX2+BMI2 block kernels for the one shape the collectives use: float32,
// full 32-value blocks. Each kernel does a whole block in registers, all
// code lengths in one body: encodeRun32K (floats → blocks), decodeRun32K
// (blocks → floats) and sumRun32K (blocks + blocks → blocks, the
// homomorphic add). The portable Go codecs in block.go are the definition;
// these must agree with them byte for byte and bit for bit.
//
// One calling convention for all three: a kernel takes a run — pointers to
// the first block of each buffer, the bytes left in each byte buffer and a
// block count — loads its constants once, loops over the run, and returns
// in front of the first block outside its contract, having written nothing
// for it, with the bytes it used and wrote, the blocks it did, and the
// state carried out of the last block it took. The Go wrappers in block.go
// hand the portable codec that one block and call the kernel again.
//
// The kernels are built from two halves, written once as macros. The
// decode front — LOADPLANES, UNPACK, SIGNED — turns a block's bytes into 32
// signed deltas in four registers; the encode back — SIGNBITS, ORWIDTH,
// TRANSPOSE, STOREPLANES — turns 32 deltas into a block's bytes. Encode is
// quantise + back, decode is front + prefix sum + dequantise, and the add
// is front(a), front(b), VPADDD, back: the Lorenzo predictor is linear, so
// deltas add without a prefix sum, a float or an int32 slice in between.
// When both code lengths are at most 6 the add runs the same pipeline on
// bytes instead of dwords (UNSQUEEZE, BYTESIGNED, VPADDB, SQUEEZE): the
// residual plane already is the 32 magnitudes in value order, so there is
// nothing to transpose.
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
// Memory contract, per block of a run, checked by the kernel against the
// lengths it is passed: encode reads the block's 32 floats and takes it
// only with 141 bytes of dst left, writing inside those; decode writes the
// block's 32 floats and takes a block of code length c only with
// need+8 bytes of src left, need = 5 + 32⌊c/8⌋ + 4(c mod 8) (a constant
// block: its one byte); the add takes a pair only when need+8 bytes of
// each operand are readable and need+8 bytes of dst are writable, and
// touches nothing beyond those.

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

// bytes 0,0,…(×8), 1(×8) | 2(×8), 3(×8): byte i of a broadcast sign word ←
// its byte i/8
DATA signSpread<>+0(SB)/8, $0x0000000000000000
DATA signSpread<>+8(SB)/8, $0x0101010101010101
DATA signSpread<>+16(SB)/8, $0x0202020202020202
DATA signSpread<>+24(SB)/8, $0x0303030303030303
GLOBL signSpread<>(SB), RODATA|NOPTR, $32

// bytes 1,2,4,…,128, four times: byte i tests sign bit i mod 8
DATA byteBit<>+0(SB)/8, $0x8040201008040201
DATA byteBit<>+8(SB)/8, $0x8040201008040201
DATA byteBit<>+16(SB)/8, $0x8040201008040201
DATA byteBit<>+24(SB)/8, $0x8040201008040201
GLOBL byteBit<>(SB), RODATA|NOPTR, $32

// SIGNBITS shifts the sign bits of the eight dwords in M into the sign word
// collected in AX, which is in place after four groups.
#define SIGNBITS(M) \
	VMOVMSKPS M, DX; \
	ORL DX, AX; \
	RORL $8, AX

// ORWIDTH leaves in CX the OR of the 32 magnitudes in Y0…Y3, flags set on
// it: the block's code length is its bit length.
#define ORWIDTH \
	VPOR Y1, Y0, Y4; \
	VPOR Y3, Y2, Y5; \
	VPOR Y5, Y4, Y4; \
	VEXTRACTI128 $1, Y4, X5; \
	VPOR X5, X4, X4; \
	VMOVQ X4, CX; \
	VPEXTRQ $1, X4, DX; \
	ORQ DX, CX; \
	MOVQ CX, DX; \
	SHRQ $32, DX; \
	ORL DX, CX

// TRANSPOSE is the 32×4 byte transpose of the magnitudes in Y0…Y3 (values
// 0–7, 8–15, 16–23, 24–31) into byte planes 0…3 in the same registers:
// dword k of each 128-bit lane ← byte k of its four magnitudes, then dword
// k of all eight lanes gathered into plane k.
#define TRANSPOSE \
	VMOVDQU byteCols<>(SB), Y4; \
	VPSHUFB Y4, Y0, Y0; \
	VPSHUFB Y4, Y1, Y1; \
	VPSHUFB Y4, Y2, Y2; \
	VPSHUFB Y4, Y3, Y3; \
	VPUNPCKLDQ Y1, Y0, Y4; \
	VPUNPCKHDQ Y1, Y0, Y5; \
	VPUNPCKLDQ Y3, Y2, Y6; \
	VPUNPCKHDQ Y3, Y2, Y7; \
	VPUNPCKLQDQ Y6, Y4, Y0; \
	VPUNPCKHQDQ Y6, Y4, Y1; \
	VPUNPCKLQDQ Y7, Y5, Y2; \
	VPUNPCKHQDQ Y7, Y5, Y3; \
	VMOVDQU mixLanes<>(SB), Y4; \
	VPERMD Y0, Y4, Y0; \
	VPERMD Y1, Y4, Y1; \
	VPERMD Y2, Y4, Y2; \
	VPERMD Y3, Y4, Y3

// SQUEEZE stores the residual plane in Y4 at R8: each of its four qwords
// (8 values, the low r = DX bits of each byte) squeezed to r bytes by one
// PEXT, written with four 8-byte stores r bytes apart — the last one ends
// at R8[3r+8].
#define SQUEEZE \
	MOVL $1, R9; \
	SHLXQ DX, R9, R9; \
	DECQ R9; \
	MOVQ $0x0101010101010101, R10; \
	IMULQ R10, R9; \
	VMOVQ X4, R10; \
	VPEXTRQ $1, X4, R11; \
	VEXTRACTI128 $1, Y4, X4; \
	VMOVQ X4, R12; \
	VPEXTRQ $1, X4, R13; \
	PEXTQ R9, R10, R10; \
	PEXTQ R9, R11, R11; \
	PEXTQ R9, R12, R12; \
	PEXTQ R9, R13, R13; \
	MOVQ R10, (R8); \
	ADDQ DX, R8; \
	MOVQ R11, (R8); \
	ADDQ DX, R8; \
	MOVQ R12, (R8); \
	ADDQ DX, R8; \
	MOVQ R13, (R8)

// STOREPLANES writes the planes Y0…Y3 of a block of code length CX (1–31)
// behind the five header bytes at DST: the ⌊c/8⌋ whole planes, then the
// next one SQUEEZEd to r = c mod 8 bits per value. The last 8-byte store
// ends at most 8 bytes past the block. Leaves the block's size in AX; the
// four labels are the caller's, unique per expansion.
#define STOREPLANES(DST, L1, L23, L3, LRES) \
	MOVL CX, DX; \
	ANDL $7, DX; /* r */ \
	SHRL $3, CX; /* ⌊c/8⌋ ≤ 3 */ \
	CMPL CX, $1; \
	JA L23; \
	JE L1; \
	VMOVDQA Y0, Y4; \
	JMP LRES; \
L1: \
	VMOVDQU Y0, 5(DST); \
	VMOVDQA Y1, Y4; \
	JMP LRES; \
L23: \
	VMOVDQU Y0, 5(DST); \
	VMOVDQU Y1, 37(DST); \
	CMPL CX, $3; \
	JE L3; \
	VMOVDQA Y2, Y4; \
	JMP LRES; \
L3: \
	VMOVDQU Y2, 69(DST); \
	VMOVDQA Y3, Y4; \
LRES: \
	SHLL $5, CX; /* 32·⌊c/8⌋ */ \
	LEAQ 5(DST)(CX*1), R8; \
	SQUEEZE; \
	LEAQ 5(CX)(DX*4), AX

// QUANT quantises blk[off/4 : off/4+8] and leaves the magnitudes of their
// Lorenzo deltas in M. PREV holds, in lane 0, the quantised value before
// this group; NEXT receives the same for the following group. AX collects
// the sign word, Y11 the lanes that fail the range test.
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
	SIGNBITS(Y4); \
	VPABSD Y4, M

// func encodeRun32K(dst *byte, src *float32, dstLen, blocks int, recip float64, qprev int32) (wrote, done int, q int32)
//
// Encodes up to blocks consecutive full blocks of src into consecutive
// blocks at dst. The run stops in front of the first block the kernel does
// not take — a value that fails the range test, a code length of 32 (only
// a qprev beyond ±2^29 gets there; STOREPLANES assumes c ≤ 31), or fewer
// than 141 bytes left of dst. q is the last quantised value of the last
// block taken, qprev if none was.
TEXT ·encodeRun32K(SB), NOSPLIT, $0-68
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ dstLen+16(FP), R14
	LEAQ -141(DI)(R14*1), R14 // a block may start at any DI ≤ R14
	MOVQ blocks+24(FP), R15
	SHLQ $7, R15
	ADDQ SI, R15 // the end of the run's floats
	VBROADCASTSD recip+32(FP), Y15
	MOVL qprev+40(FP), BX // the last quantised value taken
	VBROADCASTSD f64abs<>(SB), Y14
	VBROADCASTSD f64lim<>(SB), Y13
	VBROADCASTSD f64half<>(SB), Y12
	VMOVDQU rotUp<>(SB), Y10

encLoop:
	CMPQ SI, R15
	JAE encDone
	CMPQ DI, R14
	JA encDone
	VMOVD BX, X9
	VPXOR Y11, Y11, Y11
	XORL AX, AX
	QUANT(0, Y0, Y9, Y8)
	QUANT(32, Y1, Y8, Y9)
	QUANT(64, Y2, Y9, Y8)
	QUANT(96, Y3, Y8, Y9)
	VPTEST Y11, Y11
	JNZ encDone
	ORWIDTH
	JZ encConst
	BSRL CX, CX
	INCL CX
	CMPL CX, $32
	JE encDone
	MOVB CX, (DI)
	MOVL AX, 1(DI)
	TRANSPOSE
	// The last residual store ends at most 8 bytes past the block, inside
	// the 141 bytes.
	STOREPLANES(DI, encPlanes1, encPlanes23, encPlanes3, encResidual)
	ADDQ AX, DI
	JMP encNext

encConst:
	MOVB $0, (DI)
	INCQ DI

encNext:
	VMOVD X9, BX
	ADDQ $128, SI
	JMP encLoop

encDone:
	SUBQ dst+0(FP), DI
	MOVQ DI, wrote+48(FP)
	SUBQ src+8(FP), SI
	SHRQ $7, SI
	MOVQ SI, done+56(FP)
	MOVL BX, q+64(FP)
	VZEROUPPER
	RET

// UNSQUEEZE loads the residual plane at R8 into Y4: r = DX bytes per 8
// values, spread back to the low r bits of 8 bytes by one PDEP, four
// times. The last 8-byte load ends at R8[3r+8].
#define UNSQUEEZE \
	MOVL $1, R9; \
	SHLXQ DX, R9, R9; \
	DECQ R9; \
	MOVQ $0x0101010101010101, R10; \
	IMULQ R10, R9; \
	MOVQ (R8), R10; \
	ADDQ DX, R8; \
	MOVQ (R8), R11; \
	ADDQ DX, R8; \
	MOVQ (R8), R12; \
	ADDQ DX, R8; \
	MOVQ (R8), R13; \
	PDEPQ R9, R10, R10; \
	PDEPQ R9, R11, R11; \
	PDEPQ R9, R12, R12; \
	PDEPQ R9, R13, R13; \
	VMOVQ R10, X4; \
	VPINSRQ $1, R11, X4, X4; \
	VMOVQ R12, X5; \
	VPINSRQ $1, R13, X5, X5; \
	VINSERTI128 $1, X5, Y4, Y4

// LOADPLANES reads the magnitudes of the block whose marker byte is at SRC,
// code length CX (1–30), as byte planes Y0…Y3: the stored ones below ⌊c/8⌋,
// at it the residual plane (UNSQUEEZE, r = c mod 8), zero above. The last
// 8-byte load ends at most at SRC[need+8−r]. The four labels are the
// caller's, unique per expansion.
#define LOADPLANES(SRC, L1, L23, L3, LDONE) \
	MOVL CX, DX; \
	ANDL $7, DX; /* r */ \
	SHRL $3, CX; /* ⌊c/8⌋ */ \
	MOVL CX, R8; \
	SHLL $5, R8; \
	LEAQ 5(SRC)(R8*1), R8; \
	UNSQUEEZE; \
	VPXOR Y1, Y1, Y1; \
	VPXOR Y2, Y2, Y2; \
	VPXOR Y3, Y3, Y3; \
	CMPL CX, $1; \
	JA L23; \
	JE L1; \
	VMOVDQA Y4, Y0; \
	JMP LDONE; \
L1: \
	VMOVDQU 5(SRC), Y0; \
	VMOVDQA Y4, Y1; \
	JMP LDONE; \
L23: \
	VMOVDQU 5(SRC), Y0; \
	VMOVDQU 37(SRC), Y1; \
	CMPL CX, $3; \
	JE L3; \
	VMOVDQA Y4, Y2; \
	JMP LDONE; \
L3: \
	VMOVDQU 69(SRC), Y2; \
	VMOVDQA Y4, Y3; \
LDONE:

// UNPACK is the inverse transpose of the planes Y0…Y3: bytes → words →
// dwords, then the 128-bit lanes regrouped so that O0…O3 hold the
// magnitudes of values 0–7, 8–15, 16–23, 24–31.
#define UNPACK(O0, O1, O2, O3) \
	VPUNPCKLBW Y1, Y0, Y4; \
	VPUNPCKHBW Y1, Y0, Y5; \
	VPUNPCKLBW Y3, Y2, Y6; \
	VPUNPCKHBW Y3, Y2, Y7; \
	VPUNPCKLWD Y6, Y4, Y0; /* 0–3 | 16–19 */ \
	VPUNPCKHWD Y6, Y4, Y1; /* 4–7 | 20–23 */ \
	VPUNPCKLWD Y7, Y5, Y2; /* 8–11 | 24–27 */ \
	VPUNPCKHWD Y7, Y5, Y3; /* 12–15 | 28–31 */ \
	VPERM2I128 $0x20, Y1, Y0, O0; \
	VPERM2I128 $0x20, Y3, Y2, O1; \
	VPERM2I128 $0x31, Y1, Y0, O2; \
	VPERM2I128 $0x31, Y3, Y2, O3

// SIGNED turns the eight magnitudes in M into deltas with the low eight
// bits of the sign word broadcast in Y8, and shifts those out. Y11 holds
// laneBit; T is scratch.
#define SIGNED(M, T) \
	VPAND Y11, Y8, T; \
	VPCMPEQD Y11, T, T; /* −1 where the lane's sign bit is set */ \
	VPSRLD $8, Y8, Y8; \
	VPXOR T, M, M; \
	VPSUBD T, M, M /* (m ^ s) − s */

// DEQUANT signs the eight magnitudes in M (MX its low half), prefix-sums
// the deltas onto the accumulator broadcast in Y9, leaves the new
// accumulator there, and stores float32(eb2·float64(q)) to
// out[off/4 : off/4+8].
#define DEQUANT(off, M, MX) \
	SIGNED(M, Y12); \
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

// BLOCKLEN sets N to the size of a block of code length C ≥ 1:
// 5 + 32⌊c/8⌋ + 4(c mod 8). T is scratch.
#define BLOCKLEN(C, N, T) \
	MOVL C, N; \
	SHRL $3, N; \
	SHLL $5, N; \
	MOVL C, T; \
	ANDL $7, T; \
	LEAQ 5(N)(T*4), N

// func decodeRun32K(out *float32, src *byte, srcLen, blocks int, acc int32, eb2 float64) (used, done int, newAcc int32)
//
// Decodes up to blocks consecutive full blocks at src onto acc into
// consecutive blocks of out. The run stops in front of the first block the
// kernel does not take — no marker byte left, a marker above 30, or fewer
// than need+8 bytes left of src (the stream's last block) — and newAcc is
// the accumulator after the last block taken. A constant block is 32
// copies of float32(eb2·float64(acc)), four stores.
TEXT ·decodeRun32K(SB), NOSPLIT, $0-68
	MOVQ out+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ srcLen+16(FP), R14
	ADDQ SI, R14 // the end of src
	MOVQ blocks+24(FP), R15
	SHLQ $7, R15
	ADDQ DI, R15 // the end of the run's floats
	MOVL acc+32(FP), AX
	VMOVD AX, X9
	VPBROADCASTD X9, Y9
	VBROADCASTSD eb2+40(FP), Y15
	VMOVDQU laneBit<>(SB), Y11
	VPCMPEQD Y10, Y10, Y10
	VPSRLD $29, Y10, Y10 // dwords 7,7,…,7

decLoop:
	CMPQ DI, R15
	JAE decDone
	CMPQ SI, R14
	JAE decDone
	MOVBLZX (SI), CX
	TESTL CX, CX
	JZ decConst
	CMPL CX, $30
	JA decDone
	BLOCKLEN(CX, BX, DX)
	LEAQ 8(SI)(BX*1), DX
	CMPQ DX, R14
	JA decDone
	VPBROADCASTD 1(SI), Y8 // sign word
	LOADPLANES(SI, decPlanes1, decPlanes23, decPlanes3, decUnpack)
	UNPACK(Y4, Y5, Y6, Y7)
	DEQUANT(0, Y4, X4)
	DEQUANT(32, Y5, X5)
	DEQUANT(64, Y6, X6)
	DEQUANT(96, Y7, X7)
	ADDQ BX, SI
	ADDQ $128, DI
	JMP decLoop

decConst:
	VCVTDQ2PD X9, Y12
	VMULPD Y15, Y12, Y12
	VCVTPD2PSY Y12, X12
	VINSERTF128 $1, X12, Y12, Y12
	VMOVUPS Y12, (DI)
	VMOVUPS Y12, 32(DI)
	VMOVUPS Y12, 64(DI)
	VMOVUPS Y12, 96(DI)
	INCQ SI
	ADDQ $128, DI
	JMP decLoop

decDone:
	SUBQ src+8(FP), SI
	MOVQ SI, used+48(FP)
	SUBQ out+0(FP), DI
	SHRQ $7, DI
	MOVQ DI, done+56(FP)
	VMOVD X9, AX
	MOVL AX, newAcc+64(FP)
	VZEROUPPER
	RET

// BYTESIGNED turns the 32 byte magnitudes in Y4 into signed bytes in OUT
// with the sign word of the block at SRC. Clobbers Y0.
#define BYTESIGNED(SRC, OUT) \
	VPBROADCASTD 1(SRC), Y0; \
	VPSHUFB signSpread<>(SB), Y0, Y0; \
	VPAND byteBit<>(SB), Y0, Y0; \
	VPCMPEQB byteBit<>(SB), Y0, Y0; /* −1 where the value's sign bit is set */ \
	VPXOR Y0, Y4, Y4; \
	VPSUBB Y0, Y4, OUT /* (m ^ s) − s */

// func sumRun32K(dst, a, b *byte, dstLen, aLen, bLen, pairs int, dynamic bool, tally *[5]int64) (wrote, usedA, usedB, done int)
//
// hZ-dynamic on a run of block pairs: a and b point at marker bytes, and up
// to pairs consecutive blocks of each are added into consecutive blocks at
// dst, tally[p] counting the pairs pipeline p took. With dynamic set, a
// constant block on either side takes pipelines ①–③ (marker 0, or the
// other operand's block copied in 8-byte words); without it, it stops the
// run. The run stops in front of the first pair the kernel does not take —
// besides that, a marker above 32 beside a constant block, a marker outside
// 1–30 in pipeline ④, a sum of code length 31, or fewer than need+8 bytes
// left of a, b or dst (need the block's own size; 1 for a constant block)
// — having stored nothing at dst for that pair. With both markers at most
// 30 every |delta| is below 2^30, so no sum wraps. Pairs with both markers
// at most 6 take the byte lane at sumNarrow, the others the dword body at
// sumWide; the checks before and the bookkeeping after are shared, and DX
// names the pipeline at sumNext.
TEXT ·sumRun32K(SB), NOSPLIT, $24-104
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ dstLen+24(FP), AX
	LEAQ -8(DI)(AX*1), AX
	MOVQ AX, dend-8(SP) // a block of n bytes at p fits while p+n ≤ end−8
	MOVQ aLen+32(FP), AX
	LEAQ -8(SI)(AX*1), AX
	MOVQ AX, aend-16(SP)
	MOVQ bLen+40(FP), AX
	LEAQ -8(BX)(AX*1), AX
	MOVQ AX, bend-24(SP)
	MOVQ $0, done+96(FP)
	VMOVDQU laneBit<>(SB), Y11

sumLoop:
	CMPQ SI, aend-16(SP) // the shortest block is 1 byte, so this also
	JAE sumDone          // makes the marker readable
	CMPQ BX, bend-24(SP)
	JAE sumDone
	MOVBLZX (SI), CX
	MOVBLZX (BX), AX
	TESTL CX, CX
	JZ sumAConst
	TESTL AX, AX
	JZ sumBConst
	CMPL CX, $30
	JA sumDone
	CMPL AX, $30
	JA sumDone
	BLOCKLEN(CX, R14, DX)
	BLOCKLEN(AX, R15, DX)
	LEAQ (SI)(R14*1), DX
	CMPQ DX, aend-16(SP)
	JA sumDone
	LEAQ (BX)(R15*1), DX
	CMPQ DX, bend-24(SP)
	JA sumDone

	CMPL CX, $6
	JA sumWide
	CMPL AX, $6
	JBE sumNarrow

sumWide:
	VPBROADCASTD 1(SI), Y8
	LOADPLANES(SI, sumA1, sumA23, sumA3, sumAUnpack)
	UNPACK(Y12, Y13, Y14, Y15)
	SIGNED(Y12, Y9)
	SIGNED(Y13, Y9)
	SIGNED(Y14, Y9)
	SIGNED(Y15, Y9)
	MOVBLZX (BX), CX
	VPBROADCASTD 1(BX), Y8
	LOADPLANES(BX, sumB1, sumB23, sumB3, sumBUnpack)
	UNPACK(Y4, Y5, Y6, Y7)
	SIGNED(Y4, Y9)
	SIGNED(Y5, Y9)
	SIGNED(Y6, Y9)
	SIGNED(Y7, Y9)
	VPADDD Y12, Y4, Y4
	VPADDD Y13, Y5, Y5
	VPADDD Y14, Y6, Y6
	VPADDD Y15, Y7, Y7
	XORL AX, AX
	SIGNBITS(Y4)
	SIGNBITS(Y5)
	SIGNBITS(Y6)
	SIGNBITS(Y7)
	VPABSD Y4, Y0
	VPABSD Y5, Y1
	VPABSD Y6, Y2
	VPABSD Y7, Y3
	ORWIDTH
	JZ sumConst
	BSRL CX, CX
	INCL CX
	CMPL CX, $31
	JE sumDone
	BLOCKLEN(CX, R8, DX)
	LEAQ (DI)(R8*1), DX
	CMPQ DX, dend-8(SP)
	JA sumDone
	MOVB CX, (DI)
	MOVL AX, 1(DI)
	TRANSPOSE
	STOREPLANES(DI, sumPlanes1, sumPlanes23, sumPlanes3, sumResidual)
	ADDQ AX, DI
	MOVL $4, DX

sumNext:
	MOVQ tally+64(FP), R8
	INCQ (R8)(DX*8)
	ADDQ R14, SI
	ADDQ R15, BX
	MOVQ done+96(FP), AX
	INCQ AX
	MOVQ AX, done+96(FP)
	CMPQ AX, pairs+48(FP)
	JLT sumLoop

sumDone:
	SUBQ dst+0(FP), DI
	MOVQ DI, wrote+72(FP)
	SUBQ a+8(FP), SI
	MOVQ SI, usedA+80(FP)
	SUBQ b+16(FP), BX
	MOVQ BX, usedB+88(FP)
	VZEROUPPER
	RET

sumNarrow:
	// Both code lengths at most 6 (no stored planes, |delta| ≤ 63, so every
	// sum fits a signed byte and needs at most 7 bits): the same pipeline
	// on one register of 32 bytes, in value order as UNSQUEEZE leaves them,
	// with no transpose in either direction.
	MOVL CX, DX
	LEAQ 5(SI), R8
	UNSQUEEZE
	BYTESIGNED(SI, Y6)
	MOVL AX, DX
	LEAQ 5(BX), R8
	UNSQUEEZE
	BYTESIGNED(BX, Y4)
	VPADDB Y6, Y4, Y4
	VPMOVMSKB Y4, AX // the sign word: bit i ← sum i < 0
	VPABSB Y4, Y4
	VEXTRACTI128 $1, Y4, X5
	VPOR X5, X4, X5
	VMOVQ X5, CX
	VPEXTRQ $1, X5, DX
	ORQ DX, CX
	MOVQ CX, DX
	SHRQ $32, DX
	ORL DX, CX
	MOVL CX, DX
	SHRL $16, DX
	ORL DX, CX
	MOVL CX, DX
	SHRL $8, DX
	ORL DX, CX
	MOVBLZX CX, CX // the OR of the 32 magnitudes
	JZ sumConst
	BSRL CX, CX
	INCL CX // c ≤ 7: the block is 5 + 4c bytes
	LEAQ 5(DI)(CX*4), R8
	CMPQ R8, dend-8(SP)
	JA sumDone
	MOVB CX, (DI)
	MOVL AX, 1(DI)
	MOVL CX, DX
	LEAQ 5(DI), R8
	SQUEEZE
	LEAQ 5(DI)(DX*4), DI
	MOVL $4, DX
	JMP sumNext

sumConst:
	// Every delta cancelled: the sum is a constant block, one marker byte.
	MOVL $4, R10

sumZero: // R10 names the pipeline
	LEAQ 1(DI), DX
	CMPQ DX, dend-8(SP)
	JA sumDone
	MOVB $0, (DI)
	INCQ DI
	MOVL R10, DX
	JMP sumNext

sumAConst:
	// Pipelines ① and ②: a's block is constant, so the sum is b's block.
	CMPB dynamic+56(FP), $0
	JE sumDone
	MOVL $1, R14
	MOVL $1, R15
	MOVL $1, R10
	TESTL AX, AX
	JZ sumZero
	CMPL AX, $32
	JA sumDone
	BLOCKLEN(AX, R15, DX)
	LEAQ (BX)(R15*1), DX
	CMPQ DX, bend-24(SP)
	JA sumDone
	MOVQ BX, R8
	MOVQ R15, R9
	MOVL $2, R10
	JMP sumCopy

sumBConst:
	// Pipeline ③: b's block is constant, so the sum is a's block.
	CMPB dynamic+56(FP), $0
	JE sumDone
	CMPL CX, $32
	JA sumDone
	BLOCKLEN(CX, R14, DX)
	LEAQ (SI)(R14*1), DX
	CMPQ DX, aend-16(SP)
	JA sumDone
	MOVL $1, R15
	MOVQ SI, R8
	MOVQ R14, R9
	MOVL $3, R10

sumCopy:
	// The R9-byte block at R8 goes to dst in 8-byte words; the last one
	// ends at most 7 bytes past the block, inside the slack on both sides.
	LEAQ (DI)(R9*1), DX
	CMPQ DX, dend-8(SP)
	JA sumDone
	XORL DX, DX

sumCopyWord:
	MOVQ (R8)(DX*1), R11
	MOVQ R11, (DI)(DX*1)
	ADDQ $8, DX
	CMPQ DX, R9
	JB sumCopyWord
	ADDQ R9, DI
	MOVL R10, DX
	JMP sumNext

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
