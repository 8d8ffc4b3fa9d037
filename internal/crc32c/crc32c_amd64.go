package crc32c

import "hzccl/internal/simd"

// foldAVX512 returns the CRC-32C register after the n bytes at p, starting
// from the register state crc (the inverse of a finished sum). n must be a
// multiple of 16 and at least 256.
//
//go:noescape
func foldAVX512(crc uint32, p *byte, n int) uint32

// foldMin is the shortest buffer the kernel takes; foldRun caps one call,
// since assembly cannot be preempted (1 MiB is ≈ 20 µs at the kernel's
// rate).
const (
	foldMin = 256
	foldRun = 1 << 20
)

// updateVector folds the leading whole 16 bytes of p into crc where the
// CPU has AVX-512 and VPCLMULQDQ and p has at least foldMin bytes, and
// returns the sum and how many bytes it took.
func updateVector(crc uint32, p []byte) (uint32, int) {
	if level < simd.AVX512 || !simd.VPCLMULQDQ || len(p) < foldMin {
		return crc, 0
	}
	done := 0
	for len(p)-done >= foldMin {
		n := min(len(p)-done, foldRun) &^ 15
		crc = ^foldAVX512(^crc, &p[done], n)
		done += n
	}
	return crc, done
}
