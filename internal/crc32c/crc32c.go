// Package crc32c is the repository's one CRC-32C (Castagnoli): the sum
// every cluster frame carries, the digest of a job's result
// (floatbytes.Checksum) and the checksum of a sealed container
// (hzccl.AddChecksum). The sums are hash/crc32's with the Castagnoli
// table; on amd64 with AVX-512 and VPCLMULQDQ a folding kernel
// (crc32c_amd64.s) takes every whole 16 bytes of a buffer of 256 bytes or
// more, and hash/crc32 the rest.
package crc32c

import (
	"hash/crc32"

	"hzccl/internal/simd"
)

var table = crc32.MakeTable(crc32.Castagnoli)

// level selects Update's kernel: the CPU's, and only the package's tests
// ever lower it.
var level = simd.CPU

// foldK holds the kernel's fold constants, k(D+32) and k(D−32) for the
// fold distances D of 256, 64 and 16 bytes, k(e) = bitrev32(x^e mod P) << 1
// (see crc32c_amd64.s; TestFoldConstants derives them on every
// architecture).
var foldK = [6]uint64{
	0xdcb17aa4, 0xb9e02b86, // 256 B: k(2080), k(2016)
	0x740eef02, 0x9e4addf8, // 64 B: k(544), k(480)
	0xf20c0dfe, 0x14cd00bd6, // 16 B: k(160), k(96)
}

// Checksum returns the CRC-32C of p.
func Checksum(p []byte) uint32 { return Update(0, p) }

// Update returns the CRC-32C of the bytes crc sums followed by p, as
// crc32.Update(crc, crc32.MakeTable(crc32.Castagnoli), p) does.
func Update(crc uint32, p []byte) uint32 {
	crc, k := updateVector(crc, p)
	return crc32.Update(crc, table, p[k:])
}
