//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package floatbytes

// Wire, Load and Checksum (see view_le.go) where a float32's memory is not
// its wire format: Wire encodes into a fresh buffer, which no caller may
// tell from a view — it is for reading, and never anyone's to recycle.
// These targets are built for correctness only: an unpooled buffer per
// block is accepted; throughput here is not a goal (DESIGN.md §11).

func Wire(vals []float32) []byte { return Bytes(vals) }

func Load(dst []float32, src []byte) { ToFloat32(dst, src) }

func Checksum(vals []float32) uint32 { return checksumPortable(vals) }
