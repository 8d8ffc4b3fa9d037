// Package floatbytes converts between float32 slices and little-endian
// byte slices. The cluster substrate moves opaque []byte messages, and the
// wire format of a float32 block is its little-endian memory: on a
// little-endian target the plain (no-compression) collectives send a block
// as a byte view of the floats themselves (Wire), land an allgathered one
// with a memmove (Load) and fingerprint a result in place (Checksum) —
// view_le.go; everywhere else the same three calls go through the portable
// loops below (portable.go). Either way an incoming block is reduced
// straight from its wire bytes with AddInto, so that path never builds an
// intermediate []float32 or []byte; on amd64 AddInto adds with the vector
// kernels of add_amd64.s at the level package simd probes. The three bulk
// loops are word-wise — two floats per 8-byte load or store, four words per
// iteration, bounds checked once per iteration by re-slicing — which
// measures ≈2.5× the one-float-at-a-time loop they replace. Bytes and
// Floats are the allocating conveniences for file I/O and tests.
package floatbytes

import (
	"encoding/binary"
	"hash/crc32"
	"math"

	"hzccl/internal/simd"
)

// level selects AddInto's kernel: the CPU's, and only the package's tests
// ever lower it.
var level = simd.CPU

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksumPortable is Checksum through a fixed encode buffer.
func checksumPortable(vals []float32) uint32 {
	var buf [4096]byte
	sum := uint32(0)
	for len(vals) > 0 {
		n := min(len(vals), len(buf)/4)
		sum = crc32.Update(sum, castagnoli, buf[:FromFloat32(buf[:], vals[:n])])
		vals = vals[n:]
	}
	return sum
}

// pack joins two floats into the word that stores them little-endian in
// order.
func pack(a, b float32) uint64 {
	return uint64(math.Float32bits(a)) | uint64(math.Float32bits(b))<<32
}

// lo and hi split such a word back into its first and second float.
func lo(w uint64) float32 { return math.Float32frombits(uint32(w)) }
func hi(w uint64) float32 { return math.Float32frombits(uint32(w >> 32)) }

// FromFloat32 encodes src into dst (which must be at least 4*len(src)
// bytes) and returns the number of bytes written.
func FromFloat32(dst []byte, src []float32) int {
	n := 4 * len(src)
	dst = dst[:n]
	for len(src) >= 8 && len(dst) >= 32 {
		s, d := src[:8], dst[:32]
		binary.LittleEndian.PutUint64(d, pack(s[0], s[1]))
		binary.LittleEndian.PutUint64(d[8:], pack(s[2], s[3]))
		binary.LittleEndian.PutUint64(d[16:], pack(s[4], s[5]))
		binary.LittleEndian.PutUint64(d[24:], pack(s[6], s[7]))
		src, dst = src[8:], dst[32:]
	}
	for len(src) >= 1 && len(dst) >= 4 {
		binary.LittleEndian.PutUint32(dst, math.Float32bits(src[0]))
		src, dst = src[1:], dst[4:]
	}
	return n
}

// ToFloat32 decodes src (little-endian float32s) into dst (which must hold
// at least len(src)/4 elements) and returns the number of values decoded.
// Trailing bytes that do not fill a float are ignored.
func ToFloat32(dst []float32, src []byte) int {
	n := len(src) / 4
	dst, src = dst[:n], src[:4*n]
	for len(dst) >= 8 && len(src) >= 32 {
		d, s := dst[:8], src[:32]
		w0, w1 := binary.LittleEndian.Uint64(s), binary.LittleEndian.Uint64(s[8:])
		w2, w3 := binary.LittleEndian.Uint64(s[16:]), binary.LittleEndian.Uint64(s[24:])
		d[0], d[1], d[2], d[3] = lo(w0), hi(w0), lo(w1), hi(w1)
		d[4], d[5], d[6], d[7] = lo(w2), hi(w2), lo(w3), hi(w3)
		dst, src = dst[8:], src[32:]
	}
	for len(dst) >= 1 && len(src) >= 4 {
		dst[0] = math.Float32frombits(binary.LittleEndian.Uint32(src))
		dst, src = dst[1:], src[4:]
	}
	return n
}

// AddInto decodes src (little-endian float32s) and accumulates it into dst
// in one pass: dst[i] += src[i] for i ascending over the len(src)/4 encoded
// values — the same float32 additions, in the same order, as decoding src
// with ToFloat32 and then summing element-wise, so results are
// bit-identical to that two-pass form. dst must hold at least len(src)/4
// elements; trailing bytes that do not fill a float are ignored. The vector
// kernel takes the leading multiple of 32 values where the CPU has one, and
// the word-wise loop the rest.
func AddInto(dst []float32, src []byte) {
	n := len(src) / 4
	dst, src = dst[:n], src[:4*n]
	k := addVector(dst, src)
	dst, src = dst[k:], src[4*k:]
	for len(dst) >= 8 && len(src) >= 32 {
		d, s := dst[:8], src[:32]
		w0, w1 := binary.LittleEndian.Uint64(s), binary.LittleEndian.Uint64(s[8:])
		w2, w3 := binary.LittleEndian.Uint64(s[16:]), binary.LittleEndian.Uint64(s[24:])
		d[0] += lo(w0)
		d[1] += hi(w0)
		d[2] += lo(w1)
		d[3] += hi(w1)
		d[4] += lo(w2)
		d[5] += hi(w2)
		d[6] += lo(w3)
		d[7] += hi(w3)
		dst, src = dst[8:], src[32:]
	}
	for len(dst) >= 1 && len(src) >= 4 {
		dst[0] += math.Float32frombits(binary.LittleEndian.Uint32(src))
		dst, src = dst[1:], src[4:]
	}
}

// Bytes allocates and returns the encoding of src.
func Bytes(src []float32) []byte {
	out := make([]byte, 4*len(src))
	FromFloat32(out, src)
	return out
}

// Floats allocates and returns the decoding of src. len(src) must be a
// multiple of 4; trailing bytes are ignored.
func Floats(src []byte) []float32 {
	out := make([]float32, len(src)/4)
	ToFloat32(out, src)
	return out
}
