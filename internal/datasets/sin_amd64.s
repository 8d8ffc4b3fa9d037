#include "textflag.h"

// math.Sin in eight lanes. Every lane performs the operations of the Go
// source of math.sin (math/sin.go, the Cephes routine; amd64 has no
// assembly sin), one IEEE double rounding each, in the same order and with
// the same operands: the Cody–Waite reduction by π/4 in three parts, then
// the sine or the cosine polynomial in Horner form. The Go compiler does
// not fuse a multiply and an add on amd64, so neither does this kernel:
// its bits are math.Sin's. Where math.Sin negates its argument and its
// result, a lane works on |x| and flips the sign bit, which is the same
// operation; a ±0 keeps its sign, as math.Sin returns it unchanged. A lane
// outside the reduction's range (|x| ≥ 2^29, NaN, ±Inf) stops the kernel
// in front of its eight, for math.Sin to take.

DATA sinK<>+0(SB)/8, $0x7fffffffffffffff   // |x| mask
DATA sinK<>+8(SB)/8, $0x8000000000000000   // sign bit
DATA sinK<>+16(SB)/8, $0x41c0000000000000  // 2^29, math's reduceThreshold
DATA sinK<>+24(SB)/8, $0x3ff45f306dc9c883  // 4/π
DATA sinK<>+32(SB)/8, $0x3fe921fb40000000  // PI4A
DATA sinK<>+40(SB)/8, $0x3e64442d00000000  // PI4B
DATA sinK<>+48(SB)/8, $0x3ce8469898cc5170  // PI4C
DATA sinK<>+56(SB)/8, $0x3de5d8fd1fd19ccd  // _sin[0]
DATA sinK<>+64(SB)/8, $0xbe5ae5e5a9291f5d  // _sin[1]
DATA sinK<>+72(SB)/8, $0x3ec71de3567d48a1  // _sin[2]
DATA sinK<>+80(SB)/8, $0xbf2a01a019bfdf03  // _sin[3]
DATA sinK<>+88(SB)/8, $0x3f8111111110f7d0  // _sin[4]
DATA sinK<>+96(SB)/8, $0xbfc5555555555548  // _sin[5]
DATA sinK<>+104(SB)/8, $0xbda8fa49a0861a9b // _cos[0]
DATA sinK<>+112(SB)/8, $0x3e21ee9d7b4e3f05 // _cos[1]
DATA sinK<>+120(SB)/8, $0xbe927e4f7eac4bc6 // _cos[2]
DATA sinK<>+128(SB)/8, $0x3efa01a019c844f5 // _cos[3]
DATA sinK<>+136(SB)/8, $0xbf56c16c16c14f91 // _cos[4]
DATA sinK<>+144(SB)/8, $0x3fa555555555554b // _cos[5]
DATA sinK<>+152(SB)/8, $0x3fe0000000000000 // 0.5
DATA sinK<>+160(SB)/8, $0x3ff0000000000000 // 1.0
DATA sinK<>+168(SB)/8, $1                  // j+1 …
DATA sinK<>+176(SB)/8, $0xfffffffffffffffe // … &^ 1 maps an odd octant up
DATA sinK<>+184(SB)/8, $2                  // the octant's cosine bit
GLOBL sinK<>(SB), RODATA|NOPTR, $192

// func sinRunAVX512(xs *float64, n int) int
TEXT ·sinRunAVX512(SB), NOSPLIT, $0-24
	MOVQ xs+0(FP), SI
	MOVQ n+8(FP), CX
	XORQ AX, AX
	VBROADCASTSD sinK<>+160(SB), Z31 // 1.0

sinLoop:
	CMPQ AX, CX
	JAE sinDone
	VMOVUPD (SI)(AX*8), Z0
	VPANDQ.BCST sinK<>+0(SB), Z0, Z1         // x = |x|
	VCMPPD.BCST $0x11, sinK<>+16(SB), Z1, K1 // x < 2^29, false on NaN
	KORTESTB K1, K1
	JCC sinDone                              // some lane is not: stop
	VPANDQ.BCST sinK<>+8(SB), Z0, Z2         // the sign of the argument

	// j = uint64(x * (4/Pi)); if j&1 == 1 { j++; y++ }: y = float64(j)
	VMULPD.BCST sinK<>+24(SB), Z1, Z3
	VCVTTPD2QQ Z3, Z3
	VPADDQ.BCST sinK<>+168(SB), Z3, Z3
	VPANDQ.BCST sinK<>+176(SB), Z3, Z3
	VCVTQQ2PD Z3, Z4

	// z = ((x - y*PI4A) - y*PI4B) - y*PI4C
	VMULPD.BCST sinK<>+32(SB), Z4, Z5
	VSUBPD Z5, Z1, Z5
	VMULPD.BCST sinK<>+40(SB), Z4, Z6
	VSUBPD Z6, Z5, Z5
	VMULPD.BCST sinK<>+48(SB), Z4, Z6
	VSUBPD Z6, Z5, Z5
	VMULPD Z5, Z5, Z6 // zz = z * z

	// z + z*zz*((((((_sin[0]*zz)+_sin[1])*zz+_sin[2])*zz+_sin[3])*zz+_sin[4])*zz+_sin[5])
	VMULPD.BCST sinK<>+56(SB), Z6, Z7
	VADDPD.BCST sinK<>+64(SB), Z7, Z7
	VMULPD Z6, Z7, Z7
	VADDPD.BCST sinK<>+72(SB), Z7, Z7
	VMULPD Z6, Z7, Z7
	VADDPD.BCST sinK<>+80(SB), Z7, Z7
	VMULPD Z6, Z7, Z7
	VADDPD.BCST sinK<>+88(SB), Z7, Z7
	VMULPD Z6, Z7, Z7
	VADDPD.BCST sinK<>+96(SB), Z7, Z7
	VMULPD Z6, Z5, Z8
	VMULPD Z7, Z8, Z8
	VADDPD Z8, Z5, Z8

	// 1.0 - 0.5*zz + zz*zz*((((((_cos[0]*zz)+_cos[1])*zz+_cos[2])*zz+_cos[3])*zz+_cos[4])*zz+_cos[5])
	VMULPD.BCST sinK<>+104(SB), Z6, Z9
	VADDPD.BCST sinK<>+112(SB), Z9, Z9
	VMULPD Z6, Z9, Z9
	VADDPD.BCST sinK<>+120(SB), Z9, Z9
	VMULPD Z6, Z9, Z9
	VADDPD.BCST sinK<>+128(SB), Z9, Z9
	VMULPD Z6, Z9, Z9
	VADDPD.BCST sinK<>+136(SB), Z9, Z9
	VMULPD Z6, Z9, Z9
	VADDPD.BCST sinK<>+144(SB), Z9, Z9
	VMULPD.BCST sinK<>+152(SB), Z6, Z10
	VSUBPD Z10, Z31, Z10
	VMULPD Z6, Z6, Z11
	VMULPD Z9, Z11, Z11
	VADDPD Z11, Z10, Z10

	// The octant's bit 1 picks the cosine; its bit 2 reflects the result
	// in the x axis, on top of the argument's own sign.
	VPTESTMQ.BCST sinK<>+184(SB), Z3, K2
	VBLENDMPD Z10, Z8, K2, Z8
	VPSLLQ $61, Z3, Z3
	VPANDQ.BCST sinK<>+8(SB), Z3, Z3
	VPTERNLOGQ $0x96, Z3, Z2, Z8
	VMOVUPD Z8, (SI)(AX*8)
	ADDQ $8, AX
	JMP sinLoop

sinDone:
	VZEROUPPER
	MOVQ AX, ret+16(FP)
	RET
