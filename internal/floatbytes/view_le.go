//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package floatbytes

// This is the only non-test file in the repository that imports unsafe. It
// holds the one fact the import buys: on a little-endian target a []float32
// already is its wire bytes. Only that direction is offered — a byte has no
// alignment to violate — and never the reverse, since a received []byte
// need not be 4-aligned.

import (
	"unsafe"

	"hzccl/internal/crc32c"
)

// Wire returns vals' little-endian wire bytes for reading, valid while vals
// is unchanged. Here they are vals' own memory: they live and die with vals,
// and must never be handed to a pool or to anything else that keeps them.
func Wire(vals []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 4*len(vals))
}

// Load fills dst from its wire bytes src, len(src) == 4*len(dst).
func Load(dst []float32, src []byte) { copy(Wire(dst), src) }

// Checksum returns the crc32c of vals' wire bytes, allocating nothing.
func Checksum(vals []float32) uint32 { return crc32c.Checksum(Wire(vals)) }
