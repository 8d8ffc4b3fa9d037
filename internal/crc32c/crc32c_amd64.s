#include "textflag.h"

// CRC-32C by carry-less multiplication: four ZMM registers carry 256 bytes
// of the message as sixteen 128-bit lanes, and each step folds every lane
// forward over the next 256 bytes — a lane's two 64-bit halves multiplied
// by x^(D+32) and x^(D−32) mod P (D the fold distance in bits) and added to
// the lane D bits ahead. The four registers then fold into one at 64 bytes
// a step, its four lanes into one at 16 bytes, and the last 128 bits (whose
// CRC, from a zero register, is the whole message's) go through two
// CRC32Q. The constants are k(e) = bitrev32(x^e mod P) << 1 for P the
// Castagnoli polynomial 0x1EDC6F41, low qword k(D+32), high qword
// k(D−32): the form of hash/crc32's IEEE r2r1 (k(544), k(480)). They
// live in crc32c.go's foldK, where TestFoldConstants derives them.

// FOLD folds the lanes of acc over the distance k holds into next:
// acc = acc.lo·k.lo ⊕ acc.hi·k.hi ⊕ next (tmp is clobbered).
#define FOLD(k, next, acc, tmp) \
	VPCLMULQDQ $0x00, k, acc, tmp \
	VPCLMULQDQ $0x11, k, acc, acc \
	VPTERNLOGQ $0x96, next, tmp, acc

// func foldAVX512(crc uint32, p *byte, n int) uint32
TEXT ·foldAVX512(SB), NOSPLIT, $0-28
	MOVL crc+0(FP), AX
	MOVQ p+8(FP), SI
	MOVQ n+16(FP), CX
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VMOVD AX, X4
	VPXORQ Z4, Z0, Z0 // the register enters with the first four bytes
	ADDQ $256, SI
	SUBQ $256, CX
	VBROADCASTI32X4 ·foldK+0(SB), Z10

loop256:
	CMPQ CX, $256
	JB fold4to1
	FOLD(Z10, (SI), Z0, Z4)
	FOLD(Z10, 64(SI), Z1, Z5)
	FOLD(Z10, 128(SI), Z2, Z6)
	FOLD(Z10, 192(SI), Z3, Z7)
	ADDQ $256, SI
	SUBQ $256, CX
	JMP loop256

fold4to1:
	VBROADCASTI32X4 ·foldK+16(SB), Z10
	FOLD(Z10, Z1, Z0, Z4)
	FOLD(Z10, Z2, Z0, Z4)
	FOLD(Z10, Z3, Z0, Z4)

loop64:
	CMPQ CX, $64
	JB foldLanes
	FOLD(Z10, (SI), Z0, Z4)
	ADDQ $64, SI
	SUBQ $64, CX
	JMP loop64

foldLanes:
	VMOVDQU ·foldK+32(SB), X10
	VEXTRACTI32X4 $1, Z0, X1
	VEXTRACTI32X4 $2, Z0, X2
	VEXTRACTI32X4 $3, Z0, X3
	FOLD(X10, X1, X0, X4)
	FOLD(X10, X2, X0, X4)
	FOLD(X10, X3, X0, X4)

loop16:
	CMPQ CX, $16
	JB finish
	FOLD(X10, (SI), X0, X4)
	ADDQ $16, SI
	SUBQ $16, CX
	JMP loop16

finish:
	VMOVQ X0, AX
	VPEXTRQ $1, X0, BX
	XORL DX, DX
	CRC32Q AX, DX
	CRC32Q BX, DX
	VZEROUPPER
	MOVL DX, ret+24(FP)
	RET
