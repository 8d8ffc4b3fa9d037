package bitio

import (
	"encoding/binary"
	"math/bits"
)

// This file holds two groups of hand-unrolled bit-packing code; there is
// no generator, so edit each body by hand and keep pack/unpack symmetric.
//
//   - pack1…pack7 / unpack1…unpack7 are the paper's encoder, its
//     ultra_fast_bit_shifting_x functions, one per residual width x ∈ [1,7].
//     Each moves eight magnitudes per iteration through fixed shifts so the
//     compiler emits constant-shift, bounds-check-free code. The fZ-light
//     portable codec packs and unpacks residuals with them.
//   - Everything from "Portable pipeline-④ cores" on is the portable add of
//     two non-constant blocks, the path fzlight.SumPair32 takes where the
//     SIMD kernel does not: the word cores (…BC0–…BC3) for code lengths
//     1–30 and the SWAR add (AddBlocks32Narrow) for pairs of widths ≤ 6.

func pack1(dst []byte, mags []uint32, shift uint) {
	o := 0
	for g := 0; g+8 <= len(mags); g += 8 {
		m := mags[g : g+8 : g+8]
		acc := (uint64(m[0]>>shift)&1)<<0 |
			(uint64(m[1]>>shift)&1)<<1 |
			(uint64(m[2]>>shift)&1)<<2 |
			(uint64(m[3]>>shift)&1)<<3 |
			(uint64(m[4]>>shift)&1)<<4 |
			(uint64(m[5]>>shift)&1)<<5 |
			(uint64(m[6]>>shift)&1)<<6 |
			(uint64(m[7]>>shift)&1)<<7
		d := dst[o : o+1 : o+1]
		d[0] = byte(acc >> 0)
		o += 1
	}
}

func unpack1(src []byte, mags []uint32, shift uint) {
	o := 0
	for g := 0; g+8 <= len(mags); g += 8 {
		s := src[o : o+1 : o+1]
		acc := uint64(s[0]) << 0
		m := mags[g : g+8 : g+8]
		m[0] |= uint32(acc&1) << shift
		m[1] |= uint32(acc>>1&1) << shift
		m[2] |= uint32(acc>>2&1) << shift
		m[3] |= uint32(acc>>3&1) << shift
		m[4] |= uint32(acc>>4&1) << shift
		m[5] |= uint32(acc>>5&1) << shift
		m[6] |= uint32(acc>>6&1) << shift
		m[7] |= uint32(acc>>7&1) << shift
		o += 1
	}
}

func pack2(dst []byte, mags []uint32, shift uint) {
	o := 0
	for g := 0; g+8 <= len(mags); g += 8 {
		m := mags[g : g+8 : g+8]
		acc := (uint64(m[0]>>shift)&3)<<0 |
			(uint64(m[1]>>shift)&3)<<2 |
			(uint64(m[2]>>shift)&3)<<4 |
			(uint64(m[3]>>shift)&3)<<6 |
			(uint64(m[4]>>shift)&3)<<8 |
			(uint64(m[5]>>shift)&3)<<10 |
			(uint64(m[6]>>shift)&3)<<12 |
			(uint64(m[7]>>shift)&3)<<14
		d := dst[o : o+2 : o+2]
		d[0] = byte(acc >> 0)
		d[1] = byte(acc >> 8)
		o += 2
	}
}

func unpack2(src []byte, mags []uint32, shift uint) {
	o := 0
	for g := 0; g+8 <= len(mags); g += 8 {
		s := src[o : o+2 : o+2]
		acc := uint64(s[0])<<0 | uint64(s[1])<<8
		m := mags[g : g+8 : g+8]
		m[0] |= uint32(acc&3) << shift
		m[1] |= uint32(acc>>2&3) << shift
		m[2] |= uint32(acc>>4&3) << shift
		m[3] |= uint32(acc>>6&3) << shift
		m[4] |= uint32(acc>>8&3) << shift
		m[5] |= uint32(acc>>10&3) << shift
		m[6] |= uint32(acc>>12&3) << shift
		m[7] |= uint32(acc>>14&3) << shift
		o += 2
	}
}

func pack3(dst []byte, mags []uint32, shift uint) {
	o := 0
	for g := 0; g+8 <= len(mags); g += 8 {
		m := mags[g : g+8 : g+8]
		acc := (uint64(m[0]>>shift)&7)<<0 |
			(uint64(m[1]>>shift)&7)<<3 |
			(uint64(m[2]>>shift)&7)<<6 |
			(uint64(m[3]>>shift)&7)<<9 |
			(uint64(m[4]>>shift)&7)<<12 |
			(uint64(m[5]>>shift)&7)<<15 |
			(uint64(m[6]>>shift)&7)<<18 |
			(uint64(m[7]>>shift)&7)<<21
		d := dst[o : o+3 : o+3]
		d[0] = byte(acc >> 0)
		d[1] = byte(acc >> 8)
		d[2] = byte(acc >> 16)
		o += 3
	}
}

func unpack3(src []byte, mags []uint32, shift uint) {
	o := 0
	for g := 0; g+8 <= len(mags); g += 8 {
		s := src[o : o+3 : o+3]
		acc := uint64(s[0])<<0 | uint64(s[1])<<8 | uint64(s[2])<<16
		m := mags[g : g+8 : g+8]
		m[0] |= uint32(acc&7) << shift
		m[1] |= uint32(acc>>3&7) << shift
		m[2] |= uint32(acc>>6&7) << shift
		m[3] |= uint32(acc>>9&7) << shift
		m[4] |= uint32(acc>>12&7) << shift
		m[5] |= uint32(acc>>15&7) << shift
		m[6] |= uint32(acc>>18&7) << shift
		m[7] |= uint32(acc>>21&7) << shift
		o += 3
	}
}

func pack4(dst []byte, mags []uint32, shift uint) {
	o := 0
	for g := 0; g+8 <= len(mags); g += 8 {
		m := mags[g : g+8 : g+8]
		acc := (uint64(m[0]>>shift)&15)<<0 |
			(uint64(m[1]>>shift)&15)<<4 |
			(uint64(m[2]>>shift)&15)<<8 |
			(uint64(m[3]>>shift)&15)<<12 |
			(uint64(m[4]>>shift)&15)<<16 |
			(uint64(m[5]>>shift)&15)<<20 |
			(uint64(m[6]>>shift)&15)<<24 |
			(uint64(m[7]>>shift)&15)<<28
		d := dst[o : o+4 : o+4]
		d[0] = byte(acc >> 0)
		d[1] = byte(acc >> 8)
		d[2] = byte(acc >> 16)
		d[3] = byte(acc >> 24)
		o += 4
	}
}

func unpack4(src []byte, mags []uint32, shift uint) {
	o := 0
	for g := 0; g+8 <= len(mags); g += 8 {
		s := src[o : o+4 : o+4]
		acc := uint64(s[0])<<0 | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24
		m := mags[g : g+8 : g+8]
		m[0] |= uint32(acc&15) << shift
		m[1] |= uint32(acc>>4&15) << shift
		m[2] |= uint32(acc>>8&15) << shift
		m[3] |= uint32(acc>>12&15) << shift
		m[4] |= uint32(acc>>16&15) << shift
		m[5] |= uint32(acc>>20&15) << shift
		m[6] |= uint32(acc>>24&15) << shift
		m[7] |= uint32(acc>>28&15) << shift
		o += 4
	}
}

func pack5(dst []byte, mags []uint32, shift uint) {
	o := 0
	for g := 0; g+8 <= len(mags); g += 8 {
		m := mags[g : g+8 : g+8]
		acc := (uint64(m[0]>>shift)&31)<<0 |
			(uint64(m[1]>>shift)&31)<<5 |
			(uint64(m[2]>>shift)&31)<<10 |
			(uint64(m[3]>>shift)&31)<<15 |
			(uint64(m[4]>>shift)&31)<<20 |
			(uint64(m[5]>>shift)&31)<<25 |
			(uint64(m[6]>>shift)&31)<<30 |
			(uint64(m[7]>>shift)&31)<<35
		d := dst[o : o+5 : o+5]
		d[0] = byte(acc >> 0)
		d[1] = byte(acc >> 8)
		d[2] = byte(acc >> 16)
		d[3] = byte(acc >> 24)
		d[4] = byte(acc >> 32)
		o += 5
	}
}

func unpack5(src []byte, mags []uint32, shift uint) {
	o := 0
	for g := 0; g+8 <= len(mags); g += 8 {
		s := src[o : o+5 : o+5]
		acc := uint64(s[0])<<0 | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 | uint64(s[4])<<32
		m := mags[g : g+8 : g+8]
		m[0] |= uint32(acc&31) << shift
		m[1] |= uint32(acc>>5&31) << shift
		m[2] |= uint32(acc>>10&31) << shift
		m[3] |= uint32(acc>>15&31) << shift
		m[4] |= uint32(acc>>20&31) << shift
		m[5] |= uint32(acc>>25&31) << shift
		m[6] |= uint32(acc>>30&31) << shift
		m[7] |= uint32(acc>>35&31) << shift
		o += 5
	}
}

func pack6(dst []byte, mags []uint32, shift uint) {
	o := 0
	for g := 0; g+8 <= len(mags); g += 8 {
		m := mags[g : g+8 : g+8]
		acc := (uint64(m[0]>>shift)&63)<<0 |
			(uint64(m[1]>>shift)&63)<<6 |
			(uint64(m[2]>>shift)&63)<<12 |
			(uint64(m[3]>>shift)&63)<<18 |
			(uint64(m[4]>>shift)&63)<<24 |
			(uint64(m[5]>>shift)&63)<<30 |
			(uint64(m[6]>>shift)&63)<<36 |
			(uint64(m[7]>>shift)&63)<<42
		d := dst[o : o+6 : o+6]
		d[0] = byte(acc >> 0)
		d[1] = byte(acc >> 8)
		d[2] = byte(acc >> 16)
		d[3] = byte(acc >> 24)
		d[4] = byte(acc >> 32)
		d[5] = byte(acc >> 40)
		o += 6
	}
}

func unpack6(src []byte, mags []uint32, shift uint) {
	o := 0
	for g := 0; g+8 <= len(mags); g += 8 {
		s := src[o : o+6 : o+6]
		acc := uint64(s[0])<<0 | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 | uint64(s[4])<<32 | uint64(s[5])<<40
		m := mags[g : g+8 : g+8]
		m[0] |= uint32(acc&63) << shift
		m[1] |= uint32(acc>>6&63) << shift
		m[2] |= uint32(acc>>12&63) << shift
		m[3] |= uint32(acc>>18&63) << shift
		m[4] |= uint32(acc>>24&63) << shift
		m[5] |= uint32(acc>>30&63) << shift
		m[6] |= uint32(acc>>36&63) << shift
		m[7] |= uint32(acc>>42&63) << shift
		o += 6
	}
}

func pack7(dst []byte, mags []uint32, shift uint) {
	o := 0
	for g := 0; g+8 <= len(mags); g += 8 {
		m := mags[g : g+8 : g+8]
		acc := (uint64(m[0]>>shift)&127)<<0 |
			(uint64(m[1]>>shift)&127)<<7 |
			(uint64(m[2]>>shift)&127)<<14 |
			(uint64(m[3]>>shift)&127)<<21 |
			(uint64(m[4]>>shift)&127)<<28 |
			(uint64(m[5]>>shift)&127)<<35 |
			(uint64(m[6]>>shift)&127)<<42 |
			(uint64(m[7]>>shift)&127)<<49
		d := dst[o : o+7 : o+7]
		d[0] = byte(acc >> 0)
		d[1] = byte(acc >> 8)
		d[2] = byte(acc >> 16)
		d[3] = byte(acc >> 24)
		d[4] = byte(acc >> 32)
		d[5] = byte(acc >> 40)
		d[6] = byte(acc >> 48)
		o += 7
	}
}

func unpack7(src []byte, mags []uint32, shift uint) {
	o := 0
	for g := 0; g+8 <= len(mags); g += 8 {
		s := src[o : o+7 : o+7]
		acc := uint64(s[0])<<0 | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 | uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48
		m := mags[g : g+8 : g+8]
		m[0] |= uint32(acc&127) << shift
		m[1] |= uint32(acc>>7&127) << shift
		m[2] |= uint32(acc>>14&127) << shift
		m[3] |= uint32(acc>>21&127) << shift
		m[4] |= uint32(acc>>28&127) << shift
		m[5] |= uint32(acc>>35&127) << shift
		m[6] |= uint32(acc>>42&127) << shift
		m[7] |= uint32(acc>>49&127) << shift
		o += 7
	}
}

// ---------------------------------------------------------------------------
// Portable pipeline-④ cores.
//
// The routines below are the word-wise engine behind fzlight.SumPair32,
// the portable pipeline ④: they move whole 64-bit words of packed payload instead of
// single bytes, and they fold sign application, integer addition and
// sign/magnitude re-extraction into the unpack itself so a block pair is
// summed without ever materialising unpacked magnitude arrays for the
// operands.
//
// Layout recap for a full 32-element block payload (after the 1-byte code
// marker and the 4-byte sign word): floor(c/8) byte planes of 32 bytes
// each (plane k holds byte k of every element, element order), then the
// residual r = c%8 bits of every element packed LSB-first. Because the
// block length is 32, every 8-element group's residual bits start on a
// byte boundary (group g at byte r*g), so both planes and residuals can be
// consumed with 64-bit loads.
//
// Dispatch: UnpackDeltas32 / UnpackAddMags32 / PackMags32 switch on the
// plane count and hand the residual width to the word core for it; no
// width has a body of its own. Throughput of this portable path is not a
// goal: on CPUs with AVX2 and BMI2 the kernel in fzlight takes the pairs.
// Widths 31 and 32 (only reachable when a summed magnitude may no longer
// fit in 31 bits) are excluded by the callers, which fall back to the
// checked wide kernel in package fzlight.

// fusedSlack is the load/store headroom (bytes) past the residual region
// that lets the kernels use unconditional 64-bit accesses. Callers whose
// buffers end closer than this to the region edge are routed through a
// bounce buffer automatically.
const fusedSlack = 8

// zeroRem stands in for the residual region when r == 0 so the generic
// cores can keep a single code path; its loads are masked to zero.
var zeroRem [40]byte

// remSrc returns the residual region of p for plane count bc and residual
// width r, normalised so 64-bit loads at offsets g*r (g < 4) are in
// bounds: in the rare tail case (block ends within fusedSlack bytes of
// the stream) the bytes are bounced through rbuf.
func remSrc(p []byte, bc int, r uint, rbuf *[40]byte) []byte {
	if r == 0 {
		return zeroRem[:]
	}
	rem := p[32*bc:]
	if len(rem) >= int(4*r)+fusedSlack {
		return rem
	}
	copy(rbuf[:], rem)
	return rbuf[:]
}

// UnpackDeltas32 decodes one full-block payload p (planes + residuals,
// starting just after the sign word) with code length c in [1,30] and
// sign word signW into the signed prediction deltas d.
func UnpackDeltas32(p []byte, signW uint32, c int, d *[32]int32) {
	switch r := uint(c % 8); c / 8 {
	case 0:
		unpackDeltas32BC0(p, signW, r, d)
	case 1:
		unpackDeltas32BC1(p, signW, r, d)
	case 2:
		unpackDeltas32BC2(p, signW, r, d)
	case 3:
		unpackDeltas32BC3(p, signW, r, d)
	default:
		panic(errCodeLength)
	}
}

// UnpackAddMags32 decodes a second full-block payload with code length c
// in [0,30], adds its signed deltas into d, and re-extracts the results
// as sign/magnitude: mags receives |d[i]|, the returned sign word has bit
// i set when d[i] < 0, and ormag is the OR of all magnitudes (so the
// caller derives the output code length with bits.Len32). c == 0 performs
// the pure re-encode of d (the right-hand block contributed nothing).
func UnpackAddMags32(p []byte, signW uint32, c int, d *[32]int32, mags *[32]uint32) (osign, ormag uint32) {
	switch r := uint(c % 8); c / 8 {
	case 0:
		if c == 0 {
			return reencodeMags32(d, mags)
		}
		return unpackAddMags32BC0(p, signW, r, d, mags)
	case 1:
		return unpackAddMags32BC1(p, signW, r, d, mags)
	case 2:
		return unpackAddMags32BC2(p, signW, r, d, mags)
	case 3:
		return unpackAddMags32BC3(p, signW, r, d, mags)
	default:
		panic(errCodeLength)
	}
}

// PackMags32 writes the planes + residuals of 32 magnitudes with code
// length c in [1,31] into dst and returns the bytes written. Every
// magnitude must satisfy mags[i] < 1<<c.
func PackMags32(dst []byte, mags *[32]uint32, c int) int {
	switch r := uint(c % 8); c / 8 {
	case 0:
		return packMags32BC0(dst, mags, r)
	case 1:
		return packMags32BC1(dst, mags, r)
	case 2:
		return packMags32BC2(dst, mags, r)
	case 3:
		return packMags32BC3(dst, mags, r)
	default:
		panic(errCodeLength)
	}
}

// errCodeLength is the panic of a full-block core handed a code length
// above 31, which no valid block carries.
const errCodeLength = "bitio: code length above 31"

// Word cores, one per plane count bc = c/8, each hand-unrolled over the
// eight elements of a group with the residual width r = c%8 a variable.

func unpackDeltas32BC0(p []byte, signW uint32, r uint, d *[32]int32) {
	var rbuf [40]byte
	rem := remSrc(p, 0, r, &rbuf)
	mask := (uint32(1) << r) - 1
	for g := 0; g < 4; g++ {
		rw := binary.LittleEndian.Uint64(rem[uint(g)*r:])
		rs := uint(0)
		sw := signW >> uint(8*g)
		dd := d[8*g : 8*g+8]
		m0 := uint32(rw>>rs) & mask
		n0 := -int32(sw >> 0 & 1)
		dd[0] = (int32(m0) ^ n0) - n0
		rs += r
		m1 := uint32(rw>>rs) & mask
		n1 := -int32(sw >> 1 & 1)
		dd[1] = (int32(m1) ^ n1) - n1
		rs += r
		m2 := uint32(rw>>rs) & mask
		n2 := -int32(sw >> 2 & 1)
		dd[2] = (int32(m2) ^ n2) - n2
		rs += r
		m3 := uint32(rw>>rs) & mask
		n3 := -int32(sw >> 3 & 1)
		dd[3] = (int32(m3) ^ n3) - n3
		rs += r
		m4 := uint32(rw>>rs) & mask
		n4 := -int32(sw >> 4 & 1)
		dd[4] = (int32(m4) ^ n4) - n4
		rs += r
		m5 := uint32(rw>>rs) & mask
		n5 := -int32(sw >> 5 & 1)
		dd[5] = (int32(m5) ^ n5) - n5
		rs += r
		m6 := uint32(rw>>rs) & mask
		n6 := -int32(sw >> 6 & 1)
		dd[6] = (int32(m6) ^ n6) - n6
		rs += r
		m7 := uint32(rw>>rs) & mask
		n7 := -int32(sw >> 7 & 1)
		dd[7] = (int32(m7) ^ n7) - n7
	}
}

func unpackAddMags32BC0(p []byte, signW uint32, r uint, d *[32]int32, mags *[32]uint32) (osign, ormag uint32) {
	var rbuf [40]byte
	rem := remSrc(p, 0, r, &rbuf)
	mask := (uint32(1) << r) - 1
	for g := 0; g < 4; g++ {
		rw := binary.LittleEndian.Uint64(rem[uint(g)*r:])
		rs := uint(0)
		sw := signW >> uint(8*g)
		dd := d[8*g : 8*g+8]
		mm := mags[8*g : 8*g+8]
		var og uint32
		m0 := uint32(rw>>rs) & mask
		n0 := -int32(sw >> 0 & 1)
		s0 := dd[0] + ((int32(m0) ^ n0) - n0)
		g0 := s0 >> 31
		u0 := uint32((s0 ^ g0) - g0)
		mm[0] = u0
		og |= uint32(g0&1) << 0
		ormag |= u0
		rs += r
		m1 := uint32(rw>>rs) & mask
		n1 := -int32(sw >> 1 & 1)
		s1 := dd[1] + ((int32(m1) ^ n1) - n1)
		g1 := s1 >> 31
		u1 := uint32((s1 ^ g1) - g1)
		mm[1] = u1
		og |= uint32(g1&1) << 1
		ormag |= u1
		rs += r
		m2 := uint32(rw>>rs) & mask
		n2 := -int32(sw >> 2 & 1)
		s2 := dd[2] + ((int32(m2) ^ n2) - n2)
		g2 := s2 >> 31
		u2 := uint32((s2 ^ g2) - g2)
		mm[2] = u2
		og |= uint32(g2&1) << 2
		ormag |= u2
		rs += r
		m3 := uint32(rw>>rs) & mask
		n3 := -int32(sw >> 3 & 1)
		s3 := dd[3] + ((int32(m3) ^ n3) - n3)
		g3 := s3 >> 31
		u3 := uint32((s3 ^ g3) - g3)
		mm[3] = u3
		og |= uint32(g3&1) << 3
		ormag |= u3
		rs += r
		m4 := uint32(rw>>rs) & mask
		n4 := -int32(sw >> 4 & 1)
		s4 := dd[4] + ((int32(m4) ^ n4) - n4)
		g4 := s4 >> 31
		u4 := uint32((s4 ^ g4) - g4)
		mm[4] = u4
		og |= uint32(g4&1) << 4
		ormag |= u4
		rs += r
		m5 := uint32(rw>>rs) & mask
		n5 := -int32(sw >> 5 & 1)
		s5 := dd[5] + ((int32(m5) ^ n5) - n5)
		g5 := s5 >> 31
		u5 := uint32((s5 ^ g5) - g5)
		mm[5] = u5
		og |= uint32(g5&1) << 5
		ormag |= u5
		rs += r
		m6 := uint32(rw>>rs) & mask
		n6 := -int32(sw >> 6 & 1)
		s6 := dd[6] + ((int32(m6) ^ n6) - n6)
		g6 := s6 >> 31
		u6 := uint32((s6 ^ g6) - g6)
		mm[6] = u6
		og |= uint32(g6&1) << 6
		ormag |= u6
		rs += r
		m7 := uint32(rw>>rs) & mask
		n7 := -int32(sw >> 7 & 1)
		s7 := dd[7] + ((int32(m7) ^ n7) - n7)
		g7 := s7 >> 31
		u7 := uint32((s7 ^ g7) - g7)
		mm[7] = u7
		og |= uint32(g7&1) << 7
		ormag |= u7
		osign |= og << uint(8*g)
	}
	return osign, ormag
}

func packMags32BC0(dst []byte, mags *[32]uint32, r uint) int {
	var wbuf [40]byte
	out := dst[0:]
	direct := r == 0 || len(out) >= int(4*r)+fusedSlack
	w := out
	if !direct {
		w = wbuf[:]
	}
	for g := 0; g < 4; g++ {
		mm := mags[8*g : 8*g+8]
		var rw uint64
		rs := uint(0)
		m0 := mm[0]
		rw |= uint64(m0>>0) << rs
		rs += r
		m1 := mm[1]
		rw |= uint64(m1>>0) << rs
		rs += r
		m2 := mm[2]
		rw |= uint64(m2>>0) << rs
		rs += r
		m3 := mm[3]
		rw |= uint64(m3>>0) << rs
		rs += r
		m4 := mm[4]
		rw |= uint64(m4>>0) << rs
		rs += r
		m5 := mm[5]
		rw |= uint64(m5>>0) << rs
		rs += r
		m6 := mm[6]
		rw |= uint64(m6>>0) << rs
		rs += r
		m7 := mm[7]
		rw |= uint64(m7>>0) << rs
		if r != 0 {
			binary.LittleEndian.PutUint64(w[uint(g)*r:], rw)
		}
	}
	if !direct {
		copy(out, wbuf[:4*r])
	}
	return 0 + int(4*r)
}

func unpackDeltas32BC1(p []byte, signW uint32, r uint, d *[32]int32) {
	var rbuf [40]byte
	rem := remSrc(p, 1, r, &rbuf)
	mask := (uint32(1) << r) - 1
	for g := 0; g < 4; g++ {
		p0 := binary.LittleEndian.Uint64(p[0+8*g:])
		rw := binary.LittleEndian.Uint64(rem[uint(g)*r:])
		rs := uint(0)
		sw := signW >> uint(8*g)
		dd := d[8*g : 8*g+8]
		m0 := uint32(p0>>0)&0xff | (uint32(rw>>rs)&mask)<<8
		n0 := -int32(sw >> 0 & 1)
		dd[0] = (int32(m0) ^ n0) - n0
		rs += r
		m1 := uint32(p0>>8)&0xff | (uint32(rw>>rs)&mask)<<8
		n1 := -int32(sw >> 1 & 1)
		dd[1] = (int32(m1) ^ n1) - n1
		rs += r
		m2 := uint32(p0>>16)&0xff | (uint32(rw>>rs)&mask)<<8
		n2 := -int32(sw >> 2 & 1)
		dd[2] = (int32(m2) ^ n2) - n2
		rs += r
		m3 := uint32(p0>>24)&0xff | (uint32(rw>>rs)&mask)<<8
		n3 := -int32(sw >> 3 & 1)
		dd[3] = (int32(m3) ^ n3) - n3
		rs += r
		m4 := uint32(p0>>32)&0xff | (uint32(rw>>rs)&mask)<<8
		n4 := -int32(sw >> 4 & 1)
		dd[4] = (int32(m4) ^ n4) - n4
		rs += r
		m5 := uint32(p0>>40)&0xff | (uint32(rw>>rs)&mask)<<8
		n5 := -int32(sw >> 5 & 1)
		dd[5] = (int32(m5) ^ n5) - n5
		rs += r
		m6 := uint32(p0>>48)&0xff | (uint32(rw>>rs)&mask)<<8
		n6 := -int32(sw >> 6 & 1)
		dd[6] = (int32(m6) ^ n6) - n6
		rs += r
		m7 := uint32(p0>>56)&0xff | (uint32(rw>>rs)&mask)<<8
		n7 := -int32(sw >> 7 & 1)
		dd[7] = (int32(m7) ^ n7) - n7
	}
}

func unpackAddMags32BC1(p []byte, signW uint32, r uint, d *[32]int32, mags *[32]uint32) (osign, ormag uint32) {
	var rbuf [40]byte
	rem := remSrc(p, 1, r, &rbuf)
	mask := (uint32(1) << r) - 1
	for g := 0; g < 4; g++ {
		p0 := binary.LittleEndian.Uint64(p[0+8*g:])
		rw := binary.LittleEndian.Uint64(rem[uint(g)*r:])
		rs := uint(0)
		sw := signW >> uint(8*g)
		dd := d[8*g : 8*g+8]
		mm := mags[8*g : 8*g+8]
		var og uint32
		m0 := uint32(p0>>0)&0xff | (uint32(rw>>rs)&mask)<<8
		n0 := -int32(sw >> 0 & 1)
		s0 := dd[0] + ((int32(m0) ^ n0) - n0)
		g0 := s0 >> 31
		u0 := uint32((s0 ^ g0) - g0)
		mm[0] = u0
		og |= uint32(g0&1) << 0
		ormag |= u0
		rs += r
		m1 := uint32(p0>>8)&0xff | (uint32(rw>>rs)&mask)<<8
		n1 := -int32(sw >> 1 & 1)
		s1 := dd[1] + ((int32(m1) ^ n1) - n1)
		g1 := s1 >> 31
		u1 := uint32((s1 ^ g1) - g1)
		mm[1] = u1
		og |= uint32(g1&1) << 1
		ormag |= u1
		rs += r
		m2 := uint32(p0>>16)&0xff | (uint32(rw>>rs)&mask)<<8
		n2 := -int32(sw >> 2 & 1)
		s2 := dd[2] + ((int32(m2) ^ n2) - n2)
		g2 := s2 >> 31
		u2 := uint32((s2 ^ g2) - g2)
		mm[2] = u2
		og |= uint32(g2&1) << 2
		ormag |= u2
		rs += r
		m3 := uint32(p0>>24)&0xff | (uint32(rw>>rs)&mask)<<8
		n3 := -int32(sw >> 3 & 1)
		s3 := dd[3] + ((int32(m3) ^ n3) - n3)
		g3 := s3 >> 31
		u3 := uint32((s3 ^ g3) - g3)
		mm[3] = u3
		og |= uint32(g3&1) << 3
		ormag |= u3
		rs += r
		m4 := uint32(p0>>32)&0xff | (uint32(rw>>rs)&mask)<<8
		n4 := -int32(sw >> 4 & 1)
		s4 := dd[4] + ((int32(m4) ^ n4) - n4)
		g4 := s4 >> 31
		u4 := uint32((s4 ^ g4) - g4)
		mm[4] = u4
		og |= uint32(g4&1) << 4
		ormag |= u4
		rs += r
		m5 := uint32(p0>>40)&0xff | (uint32(rw>>rs)&mask)<<8
		n5 := -int32(sw >> 5 & 1)
		s5 := dd[5] + ((int32(m5) ^ n5) - n5)
		g5 := s5 >> 31
		u5 := uint32((s5 ^ g5) - g5)
		mm[5] = u5
		og |= uint32(g5&1) << 5
		ormag |= u5
		rs += r
		m6 := uint32(p0>>48)&0xff | (uint32(rw>>rs)&mask)<<8
		n6 := -int32(sw >> 6 & 1)
		s6 := dd[6] + ((int32(m6) ^ n6) - n6)
		g6 := s6 >> 31
		u6 := uint32((s6 ^ g6) - g6)
		mm[6] = u6
		og |= uint32(g6&1) << 6
		ormag |= u6
		rs += r
		m7 := uint32(p0>>56)&0xff | (uint32(rw>>rs)&mask)<<8
		n7 := -int32(sw >> 7 & 1)
		s7 := dd[7] + ((int32(m7) ^ n7) - n7)
		g7 := s7 >> 31
		u7 := uint32((s7 ^ g7) - g7)
		mm[7] = u7
		og |= uint32(g7&1) << 7
		ormag |= u7
		osign |= og << uint(8*g)
	}
	return osign, ormag
}

func packMags32BC1(dst []byte, mags *[32]uint32, r uint) int {
	var wbuf [40]byte
	out := dst[32:]
	direct := r == 0 || len(out) >= int(4*r)+fusedSlack
	w := out
	if !direct {
		w = wbuf[:]
	}
	for g := 0; g < 4; g++ {
		mm := mags[8*g : 8*g+8]
		var p0 uint64
		var rw uint64
		rs := uint(0)
		m0 := mm[0]
		p0 |= uint64(m0>>0&0xff) << 0
		rw |= uint64(m0>>8) << rs
		rs += r
		m1 := mm[1]
		p0 |= uint64(m1>>0&0xff) << 8
		rw |= uint64(m1>>8) << rs
		rs += r
		m2 := mm[2]
		p0 |= uint64(m2>>0&0xff) << 16
		rw |= uint64(m2>>8) << rs
		rs += r
		m3 := mm[3]
		p0 |= uint64(m3>>0&0xff) << 24
		rw |= uint64(m3>>8) << rs
		rs += r
		m4 := mm[4]
		p0 |= uint64(m4>>0&0xff) << 32
		rw |= uint64(m4>>8) << rs
		rs += r
		m5 := mm[5]
		p0 |= uint64(m5>>0&0xff) << 40
		rw |= uint64(m5>>8) << rs
		rs += r
		m6 := mm[6]
		p0 |= uint64(m6>>0&0xff) << 48
		rw |= uint64(m6>>8) << rs
		rs += r
		m7 := mm[7]
		p0 |= uint64(m7>>0&0xff) << 56
		rw |= uint64(m7>>8) << rs
		binary.LittleEndian.PutUint64(dst[0+8*g:], p0)
		if r != 0 {
			binary.LittleEndian.PutUint64(w[uint(g)*r:], rw)
		}
	}
	if !direct {
		copy(out, wbuf[:4*r])
	}
	return 32 + int(4*r)
}

func unpackDeltas32BC2(p []byte, signW uint32, r uint, d *[32]int32) {
	var rbuf [40]byte
	rem := remSrc(p, 2, r, &rbuf)
	mask := (uint32(1) << r) - 1
	for g := 0; g < 4; g++ {
		p0 := binary.LittleEndian.Uint64(p[0+8*g:])
		p1 := binary.LittleEndian.Uint64(p[32+8*g:])
		rw := binary.LittleEndian.Uint64(rem[uint(g)*r:])
		rs := uint(0)
		sw := signW >> uint(8*g)
		dd := d[8*g : 8*g+8]
		m0 := uint32(p0>>0)&0xff | (uint32(p1>>0)&0xff)<<8 | (uint32(rw>>rs)&mask)<<16
		n0 := -int32(sw >> 0 & 1)
		dd[0] = (int32(m0) ^ n0) - n0
		rs += r
		m1 := uint32(p0>>8)&0xff | (uint32(p1>>8)&0xff)<<8 | (uint32(rw>>rs)&mask)<<16
		n1 := -int32(sw >> 1 & 1)
		dd[1] = (int32(m1) ^ n1) - n1
		rs += r
		m2 := uint32(p0>>16)&0xff | (uint32(p1>>16)&0xff)<<8 | (uint32(rw>>rs)&mask)<<16
		n2 := -int32(sw >> 2 & 1)
		dd[2] = (int32(m2) ^ n2) - n2
		rs += r
		m3 := uint32(p0>>24)&0xff | (uint32(p1>>24)&0xff)<<8 | (uint32(rw>>rs)&mask)<<16
		n3 := -int32(sw >> 3 & 1)
		dd[3] = (int32(m3) ^ n3) - n3
		rs += r
		m4 := uint32(p0>>32)&0xff | (uint32(p1>>32)&0xff)<<8 | (uint32(rw>>rs)&mask)<<16
		n4 := -int32(sw >> 4 & 1)
		dd[4] = (int32(m4) ^ n4) - n4
		rs += r
		m5 := uint32(p0>>40)&0xff | (uint32(p1>>40)&0xff)<<8 | (uint32(rw>>rs)&mask)<<16
		n5 := -int32(sw >> 5 & 1)
		dd[5] = (int32(m5) ^ n5) - n5
		rs += r
		m6 := uint32(p0>>48)&0xff | (uint32(p1>>48)&0xff)<<8 | (uint32(rw>>rs)&mask)<<16
		n6 := -int32(sw >> 6 & 1)
		dd[6] = (int32(m6) ^ n6) - n6
		rs += r
		m7 := uint32(p0>>56)&0xff | (uint32(p1>>56)&0xff)<<8 | (uint32(rw>>rs)&mask)<<16
		n7 := -int32(sw >> 7 & 1)
		dd[7] = (int32(m7) ^ n7) - n7
	}
}

func unpackAddMags32BC2(p []byte, signW uint32, r uint, d *[32]int32, mags *[32]uint32) (osign, ormag uint32) {
	var rbuf [40]byte
	rem := remSrc(p, 2, r, &rbuf)
	mask := (uint32(1) << r) - 1
	for g := 0; g < 4; g++ {
		p0 := binary.LittleEndian.Uint64(p[0+8*g:])
		p1 := binary.LittleEndian.Uint64(p[32+8*g:])
		rw := binary.LittleEndian.Uint64(rem[uint(g)*r:])
		rs := uint(0)
		sw := signW >> uint(8*g)
		dd := d[8*g : 8*g+8]
		mm := mags[8*g : 8*g+8]
		var og uint32
		m0 := uint32(p0>>0)&0xff | (uint32(p1>>0)&0xff)<<8 | (uint32(rw>>rs)&mask)<<16
		n0 := -int32(sw >> 0 & 1)
		s0 := dd[0] + ((int32(m0) ^ n0) - n0)
		g0 := s0 >> 31
		u0 := uint32((s0 ^ g0) - g0)
		mm[0] = u0
		og |= uint32(g0&1) << 0
		ormag |= u0
		rs += r
		m1 := uint32(p0>>8)&0xff | (uint32(p1>>8)&0xff)<<8 | (uint32(rw>>rs)&mask)<<16
		n1 := -int32(sw >> 1 & 1)
		s1 := dd[1] + ((int32(m1) ^ n1) - n1)
		g1 := s1 >> 31
		u1 := uint32((s1 ^ g1) - g1)
		mm[1] = u1
		og |= uint32(g1&1) << 1
		ormag |= u1
		rs += r
		m2 := uint32(p0>>16)&0xff | (uint32(p1>>16)&0xff)<<8 | (uint32(rw>>rs)&mask)<<16
		n2 := -int32(sw >> 2 & 1)
		s2 := dd[2] + ((int32(m2) ^ n2) - n2)
		g2 := s2 >> 31
		u2 := uint32((s2 ^ g2) - g2)
		mm[2] = u2
		og |= uint32(g2&1) << 2
		ormag |= u2
		rs += r
		m3 := uint32(p0>>24)&0xff | (uint32(p1>>24)&0xff)<<8 | (uint32(rw>>rs)&mask)<<16
		n3 := -int32(sw >> 3 & 1)
		s3 := dd[3] + ((int32(m3) ^ n3) - n3)
		g3 := s3 >> 31
		u3 := uint32((s3 ^ g3) - g3)
		mm[3] = u3
		og |= uint32(g3&1) << 3
		ormag |= u3
		rs += r
		m4 := uint32(p0>>32)&0xff | (uint32(p1>>32)&0xff)<<8 | (uint32(rw>>rs)&mask)<<16
		n4 := -int32(sw >> 4 & 1)
		s4 := dd[4] + ((int32(m4) ^ n4) - n4)
		g4 := s4 >> 31
		u4 := uint32((s4 ^ g4) - g4)
		mm[4] = u4
		og |= uint32(g4&1) << 4
		ormag |= u4
		rs += r
		m5 := uint32(p0>>40)&0xff | (uint32(p1>>40)&0xff)<<8 | (uint32(rw>>rs)&mask)<<16
		n5 := -int32(sw >> 5 & 1)
		s5 := dd[5] + ((int32(m5) ^ n5) - n5)
		g5 := s5 >> 31
		u5 := uint32((s5 ^ g5) - g5)
		mm[5] = u5
		og |= uint32(g5&1) << 5
		ormag |= u5
		rs += r
		m6 := uint32(p0>>48)&0xff | (uint32(p1>>48)&0xff)<<8 | (uint32(rw>>rs)&mask)<<16
		n6 := -int32(sw >> 6 & 1)
		s6 := dd[6] + ((int32(m6) ^ n6) - n6)
		g6 := s6 >> 31
		u6 := uint32((s6 ^ g6) - g6)
		mm[6] = u6
		og |= uint32(g6&1) << 6
		ormag |= u6
		rs += r
		m7 := uint32(p0>>56)&0xff | (uint32(p1>>56)&0xff)<<8 | (uint32(rw>>rs)&mask)<<16
		n7 := -int32(sw >> 7 & 1)
		s7 := dd[7] + ((int32(m7) ^ n7) - n7)
		g7 := s7 >> 31
		u7 := uint32((s7 ^ g7) - g7)
		mm[7] = u7
		og |= uint32(g7&1) << 7
		ormag |= u7
		osign |= og << uint(8*g)
	}
	return osign, ormag
}

func packMags32BC2(dst []byte, mags *[32]uint32, r uint) int {
	var wbuf [40]byte
	out := dst[64:]
	direct := r == 0 || len(out) >= int(4*r)+fusedSlack
	w := out
	if !direct {
		w = wbuf[:]
	}
	for g := 0; g < 4; g++ {
		mm := mags[8*g : 8*g+8]
		var p0 uint64
		var p1 uint64
		var rw uint64
		rs := uint(0)
		m0 := mm[0]
		p0 |= uint64(m0>>0&0xff) << 0
		p1 |= uint64(m0>>8&0xff) << 0
		rw |= uint64(m0>>16) << rs
		rs += r
		m1 := mm[1]
		p0 |= uint64(m1>>0&0xff) << 8
		p1 |= uint64(m1>>8&0xff) << 8
		rw |= uint64(m1>>16) << rs
		rs += r
		m2 := mm[2]
		p0 |= uint64(m2>>0&0xff) << 16
		p1 |= uint64(m2>>8&0xff) << 16
		rw |= uint64(m2>>16) << rs
		rs += r
		m3 := mm[3]
		p0 |= uint64(m3>>0&0xff) << 24
		p1 |= uint64(m3>>8&0xff) << 24
		rw |= uint64(m3>>16) << rs
		rs += r
		m4 := mm[4]
		p0 |= uint64(m4>>0&0xff) << 32
		p1 |= uint64(m4>>8&0xff) << 32
		rw |= uint64(m4>>16) << rs
		rs += r
		m5 := mm[5]
		p0 |= uint64(m5>>0&0xff) << 40
		p1 |= uint64(m5>>8&0xff) << 40
		rw |= uint64(m5>>16) << rs
		rs += r
		m6 := mm[6]
		p0 |= uint64(m6>>0&0xff) << 48
		p1 |= uint64(m6>>8&0xff) << 48
		rw |= uint64(m6>>16) << rs
		rs += r
		m7 := mm[7]
		p0 |= uint64(m7>>0&0xff) << 56
		p1 |= uint64(m7>>8&0xff) << 56
		rw |= uint64(m7>>16) << rs
		binary.LittleEndian.PutUint64(dst[0+8*g:], p0)
		binary.LittleEndian.PutUint64(dst[32+8*g:], p1)
		if r != 0 {
			binary.LittleEndian.PutUint64(w[uint(g)*r:], rw)
		}
	}
	if !direct {
		copy(out, wbuf[:4*r])
	}
	return 64 + int(4*r)
}

func unpackDeltas32BC3(p []byte, signW uint32, r uint, d *[32]int32) {
	var rbuf [40]byte
	rem := remSrc(p, 3, r, &rbuf)
	mask := (uint32(1) << r) - 1
	for g := 0; g < 4; g++ {
		p0 := binary.LittleEndian.Uint64(p[0+8*g:])
		p1 := binary.LittleEndian.Uint64(p[32+8*g:])
		p2 := binary.LittleEndian.Uint64(p[64+8*g:])
		rw := binary.LittleEndian.Uint64(rem[uint(g)*r:])
		rs := uint(0)
		sw := signW >> uint(8*g)
		dd := d[8*g : 8*g+8]
		m0 := uint32(p0>>0)&0xff | (uint32(p1>>0)&0xff)<<8 | (uint32(p2>>0)&0xff)<<16 | (uint32(rw>>rs)&mask)<<24
		n0 := -int32(sw >> 0 & 1)
		dd[0] = (int32(m0) ^ n0) - n0
		rs += r
		m1 := uint32(p0>>8)&0xff | (uint32(p1>>8)&0xff)<<8 | (uint32(p2>>8)&0xff)<<16 | (uint32(rw>>rs)&mask)<<24
		n1 := -int32(sw >> 1 & 1)
		dd[1] = (int32(m1) ^ n1) - n1
		rs += r
		m2 := uint32(p0>>16)&0xff | (uint32(p1>>16)&0xff)<<8 | (uint32(p2>>16)&0xff)<<16 | (uint32(rw>>rs)&mask)<<24
		n2 := -int32(sw >> 2 & 1)
		dd[2] = (int32(m2) ^ n2) - n2
		rs += r
		m3 := uint32(p0>>24)&0xff | (uint32(p1>>24)&0xff)<<8 | (uint32(p2>>24)&0xff)<<16 | (uint32(rw>>rs)&mask)<<24
		n3 := -int32(sw >> 3 & 1)
		dd[3] = (int32(m3) ^ n3) - n3
		rs += r
		m4 := uint32(p0>>32)&0xff | (uint32(p1>>32)&0xff)<<8 | (uint32(p2>>32)&0xff)<<16 | (uint32(rw>>rs)&mask)<<24
		n4 := -int32(sw >> 4 & 1)
		dd[4] = (int32(m4) ^ n4) - n4
		rs += r
		m5 := uint32(p0>>40)&0xff | (uint32(p1>>40)&0xff)<<8 | (uint32(p2>>40)&0xff)<<16 | (uint32(rw>>rs)&mask)<<24
		n5 := -int32(sw >> 5 & 1)
		dd[5] = (int32(m5) ^ n5) - n5
		rs += r
		m6 := uint32(p0>>48)&0xff | (uint32(p1>>48)&0xff)<<8 | (uint32(p2>>48)&0xff)<<16 | (uint32(rw>>rs)&mask)<<24
		n6 := -int32(sw >> 6 & 1)
		dd[6] = (int32(m6) ^ n6) - n6
		rs += r
		m7 := uint32(p0>>56)&0xff | (uint32(p1>>56)&0xff)<<8 | (uint32(p2>>56)&0xff)<<16 | (uint32(rw>>rs)&mask)<<24
		n7 := -int32(sw >> 7 & 1)
		dd[7] = (int32(m7) ^ n7) - n7
	}
}

func unpackAddMags32BC3(p []byte, signW uint32, r uint, d *[32]int32, mags *[32]uint32) (osign, ormag uint32) {
	var rbuf [40]byte
	rem := remSrc(p, 3, r, &rbuf)
	mask := (uint32(1) << r) - 1
	for g := 0; g < 4; g++ {
		p0 := binary.LittleEndian.Uint64(p[0+8*g:])
		p1 := binary.LittleEndian.Uint64(p[32+8*g:])
		p2 := binary.LittleEndian.Uint64(p[64+8*g:])
		rw := binary.LittleEndian.Uint64(rem[uint(g)*r:])
		rs := uint(0)
		sw := signW >> uint(8*g)
		dd := d[8*g : 8*g+8]
		mm := mags[8*g : 8*g+8]
		var og uint32
		m0 := uint32(p0>>0)&0xff | (uint32(p1>>0)&0xff)<<8 | (uint32(p2>>0)&0xff)<<16 | (uint32(rw>>rs)&mask)<<24
		n0 := -int32(sw >> 0 & 1)
		s0 := dd[0] + ((int32(m0) ^ n0) - n0)
		g0 := s0 >> 31
		u0 := uint32((s0 ^ g0) - g0)
		mm[0] = u0
		og |= uint32(g0&1) << 0
		ormag |= u0
		rs += r
		m1 := uint32(p0>>8)&0xff | (uint32(p1>>8)&0xff)<<8 | (uint32(p2>>8)&0xff)<<16 | (uint32(rw>>rs)&mask)<<24
		n1 := -int32(sw >> 1 & 1)
		s1 := dd[1] + ((int32(m1) ^ n1) - n1)
		g1 := s1 >> 31
		u1 := uint32((s1 ^ g1) - g1)
		mm[1] = u1
		og |= uint32(g1&1) << 1
		ormag |= u1
		rs += r
		m2 := uint32(p0>>16)&0xff | (uint32(p1>>16)&0xff)<<8 | (uint32(p2>>16)&0xff)<<16 | (uint32(rw>>rs)&mask)<<24
		n2 := -int32(sw >> 2 & 1)
		s2 := dd[2] + ((int32(m2) ^ n2) - n2)
		g2 := s2 >> 31
		u2 := uint32((s2 ^ g2) - g2)
		mm[2] = u2
		og |= uint32(g2&1) << 2
		ormag |= u2
		rs += r
		m3 := uint32(p0>>24)&0xff | (uint32(p1>>24)&0xff)<<8 | (uint32(p2>>24)&0xff)<<16 | (uint32(rw>>rs)&mask)<<24
		n3 := -int32(sw >> 3 & 1)
		s3 := dd[3] + ((int32(m3) ^ n3) - n3)
		g3 := s3 >> 31
		u3 := uint32((s3 ^ g3) - g3)
		mm[3] = u3
		og |= uint32(g3&1) << 3
		ormag |= u3
		rs += r
		m4 := uint32(p0>>32)&0xff | (uint32(p1>>32)&0xff)<<8 | (uint32(p2>>32)&0xff)<<16 | (uint32(rw>>rs)&mask)<<24
		n4 := -int32(sw >> 4 & 1)
		s4 := dd[4] + ((int32(m4) ^ n4) - n4)
		g4 := s4 >> 31
		u4 := uint32((s4 ^ g4) - g4)
		mm[4] = u4
		og |= uint32(g4&1) << 4
		ormag |= u4
		rs += r
		m5 := uint32(p0>>40)&0xff | (uint32(p1>>40)&0xff)<<8 | (uint32(p2>>40)&0xff)<<16 | (uint32(rw>>rs)&mask)<<24
		n5 := -int32(sw >> 5 & 1)
		s5 := dd[5] + ((int32(m5) ^ n5) - n5)
		g5 := s5 >> 31
		u5 := uint32((s5 ^ g5) - g5)
		mm[5] = u5
		og |= uint32(g5&1) << 5
		ormag |= u5
		rs += r
		m6 := uint32(p0>>48)&0xff | (uint32(p1>>48)&0xff)<<8 | (uint32(p2>>48)&0xff)<<16 | (uint32(rw>>rs)&mask)<<24
		n6 := -int32(sw >> 6 & 1)
		s6 := dd[6] + ((int32(m6) ^ n6) - n6)
		g6 := s6 >> 31
		u6 := uint32((s6 ^ g6) - g6)
		mm[6] = u6
		og |= uint32(g6&1) << 6
		ormag |= u6
		rs += r
		m7 := uint32(p0>>56)&0xff | (uint32(p1>>56)&0xff)<<8 | (uint32(p2>>56)&0xff)<<16 | (uint32(rw>>rs)&mask)<<24
		n7 := -int32(sw >> 7 & 1)
		s7 := dd[7] + ((int32(m7) ^ n7) - n7)
		g7 := s7 >> 31
		u7 := uint32((s7 ^ g7) - g7)
		mm[7] = u7
		og |= uint32(g7&1) << 7
		ormag |= u7
		osign |= og << uint(8*g)
	}
	return osign, ormag
}

func packMags32BC3(dst []byte, mags *[32]uint32, r uint) int {
	var wbuf [40]byte
	out := dst[96:]
	direct := r == 0 || len(out) >= int(4*r)+fusedSlack
	w := out
	if !direct {
		w = wbuf[:]
	}
	for g := 0; g < 4; g++ {
		mm := mags[8*g : 8*g+8]
		var p0 uint64
		var p1 uint64
		var p2 uint64
		var rw uint64
		rs := uint(0)
		m0 := mm[0]
		p0 |= uint64(m0>>0&0xff) << 0
		p1 |= uint64(m0>>8&0xff) << 0
		p2 |= uint64(m0>>16&0xff) << 0
		rw |= uint64(m0>>24) << rs
		rs += r
		m1 := mm[1]
		p0 |= uint64(m1>>0&0xff) << 8
		p1 |= uint64(m1>>8&0xff) << 8
		p2 |= uint64(m1>>16&0xff) << 8
		rw |= uint64(m1>>24) << rs
		rs += r
		m2 := mm[2]
		p0 |= uint64(m2>>0&0xff) << 16
		p1 |= uint64(m2>>8&0xff) << 16
		p2 |= uint64(m2>>16&0xff) << 16
		rw |= uint64(m2>>24) << rs
		rs += r
		m3 := mm[3]
		p0 |= uint64(m3>>0&0xff) << 24
		p1 |= uint64(m3>>8&0xff) << 24
		p2 |= uint64(m3>>16&0xff) << 24
		rw |= uint64(m3>>24) << rs
		rs += r
		m4 := mm[4]
		p0 |= uint64(m4>>0&0xff) << 32
		p1 |= uint64(m4>>8&0xff) << 32
		p2 |= uint64(m4>>16&0xff) << 32
		rw |= uint64(m4>>24) << rs
		rs += r
		m5 := mm[5]
		p0 |= uint64(m5>>0&0xff) << 40
		p1 |= uint64(m5>>8&0xff) << 40
		p2 |= uint64(m5>>16&0xff) << 40
		rw |= uint64(m5>>24) << rs
		rs += r
		m6 := mm[6]
		p0 |= uint64(m6>>0&0xff) << 48
		p1 |= uint64(m6>>8&0xff) << 48
		p2 |= uint64(m6>>16&0xff) << 48
		rw |= uint64(m6>>24) << rs
		rs += r
		m7 := mm[7]
		p0 |= uint64(m7>>0&0xff) << 56
		p1 |= uint64(m7>>8&0xff) << 56
		p2 |= uint64(m7>>16&0xff) << 56
		rw |= uint64(m7>>24) << rs
		binary.LittleEndian.PutUint64(dst[0+8*g:], p0)
		binary.LittleEndian.PutUint64(dst[32+8*g:], p1)
		binary.LittleEndian.PutUint64(dst[64+8*g:], p2)
		if r != 0 {
			binary.LittleEndian.PutUint64(w[uint(g)*r:], rw)
		}
	}
	if !direct {
		copy(out, wbuf[:4*r])
	}
	return 96 + int(4*r)
}

// reencodeMags32 re-extracts sign/magnitude from d without a second
// operand (UnpackAddMags32 with c == 0).
func reencodeMags32(d *[32]int32, mags *[32]uint32) (osign, ormag uint32) {
	for i := 0; i < 32; i++ {
		s := d[i]
		g := s >> 31
		u := uint32((s ^ g) - g)
		mags[i] = u
		osign |= uint32(g&1) << uint(i)
		ormag |= u
	}
	return osign, ormag
}

// ---------------------------------------------------------------------------
// Narrow-width SWAR fused add: 8 lanes per machine word.
//
// When both operand code lengths are ≤ 6 every magnitude is < 64, so a
// signed delta fits a bias-64 byte ([2,126]) and the SUM of two biased
// operands fits a bias-128 byte ([2,254]) — eight lanes add in one
// 64-bit register with no possibility of a carry crossing a lane. This
// is the regime scientific snapshots live in (CESM-ATM blocks are almost
// entirely c ∈ {2,3}), and it is where the lane-scalar kernels above are
// still paying ~10 instructions per element. The SWAR path pays ~5.
//
// Decode uses per-byte spread tables: residual byte j of a group
// contributes narrowTab[r-1][j][b] — its bits pre-scattered to the
// 8-bit lane fields — so expanding 8 lanes costs r table loads and ORs.
// Sign application and biasing fuse into one table: narrowSign[sb] holds
// per-lane masks K = 0x3F (negative: 64-m = (m^0x3F)+1) or 0x40
// (positive: 64+m = m^0x40), so v = (m ^ K) + (K & lowBits) yields the
// biased operand in three ops — including for the non-canonical
// "negative zero" encoding, which decodes to 64 exactly like the scalar
// path's ±0.

const (
	swarHigh = 0x8080808080808080 // bit 7 of every lane
	swarLow  = 0x0101010101010101 // bit 0 of every lane
	// swarGather packs the eight lane-bit-7s into the top byte:
	// ((x & swarHigh) * swarGather) >> 56 is a byte whose bit i is
	// lane i's bit 7 (the scalar movemask emulation).
	swarGather = 0x0002040810204081
)

// narrowTab[r-1][j][b] spreads byte j of an r-bit-per-lane residual
// group (8 lanes, r bytes) into 8-bit lane fields.
var narrowTab [6][6][256]uint64

// narrowSign[sb] holds the per-lane bias constants for sign byte sb:
// 0x3F in negative lanes, 0x40 in positive ones. The low bit doubles as
// the +1 of the negative lanes' complement.
var narrowSign [256]uint64

func init() {
	for r := 1; r <= 6; r++ {
		for j := 0; j < r; j++ {
			for b := 0; b < 256; b++ {
				var e uint64
				for k := 0; k < 8; k++ {
					if b&(1<<k) == 0 {
						continue
					}
					n := 8*j + k
					lane, pos := n/r, n%r
					if lane < 8 {
						e |= 1 << (8*lane + pos)
					}
				}
				narrowTab[r-1][j][b] = e
			}
		}
	}
	for sb := 0; sb < 256; sb++ {
		var k uint64
		for lane := 0; lane < 8; lane++ {
			if sb&(1<<lane) != 0 {
				k |= 0x3F << (8 * lane)
			} else {
				k |= 0x40 << (8 * lane)
			}
		}
		narrowSign[sb] = k
	}
}

// AddBlocks32Narrow fuses decode → add → re-encode for one full
// 32-element block pair whose code lengths ca, cb are both ≤ 6. pa and
// pb are the residual payloads (the bytes after each block's sign word;
// nil/ignored when the code length is 0), swa/swb the sign words. The
// output block (marker, sign word, payload) is written to dst and its
// size returned. dst needs room for the worst-case output block
// (5 + 4*7 bytes) plus fusedSlack, or exactly the written size — the
// store path bounces through a local buffer near the end of dst, like
// PackMags32.
func AddBlocks32Narrow(dst, pa, pb []byte, swa, swb uint32, ca, cb int) int {
	var f0, f1, f2, f3 uint64
	const bias = 0x4040404040404040
	switch {
	case ca == 0 && cb == 0:
		dst[0] = 0
		return 1
	case ca == 0:
		f0, f1, f2, f3 = narrowBiasedTab[cb](&narrowTab[cb-1], pb, swb)
		f0 += bias
		f1 += bias
		f2 += bias
		f3 += bias
	case cb == 0:
		f0, f1, f2, f3 = narrowBiasedTab[ca](&narrowTab[ca-1], pa, swa)
		f0 += bias
		f1 += bias
		f2 += bias
		f3 += bias
	default:
		a0, a1, a2, a3 := narrowBiasedTab[ca](&narrowTab[ca-1], pa, swa)
		b0, b1, b2, b3 := narrowBiasedTab[cb](&narrowTab[cb-1], pb, swb)
		f0, f1, f2, f3 = a0+b0, a1+b1, a2+b2, a3+b3
	}
	// Each lane now holds 128 + (da+db) in [2,254]. Extract signs and
	// magnitudes SWAR-wise, then pack.
	return narrowFinish(dst, f0, f1, f2, f3)
}

// narrowAbs turns bias-128 lanes into |value| lanes.
func narrowAbs(f uint64) uint64 {
	t := f ^ swarHigh // two's-complement da+db per lane
	n := t >> 7 & swarLow
	return (t ^ ((n << 8) - n)) + n
}

// narrowCompress funnels one group's magnitude lanes (8-bit fields,
// values < 1<<co) into 8*co packed bits and stores them at byte co*g.
// Stores are forward-overwriting 64-bit writes, like the pack kernels.
func narrowCompress(w []byte, g int, u uint64, co uint, k1, k2, k3 uint64) {
	t := (u & k1) | (u&(k1<<8))>>(8-co)
	t = (t & k2) | (t&(k2<<16))>>(16-2*co)
	t = (t & k3) | (t&(k3<<32))>>(32-4*co)
	binary.LittleEndian.PutUint64(w[co*uint(g):], t)
}

// narrowBiasedN (one per residual width) decodes a full 32-lane payload
// into four bias-64 SWAR words in a single call: per group, the r
// residual bytes OR their pre-scattered table rows together and the sign
// table applies sign and bias. Fully unrolled so the whole block decode
// is one non-inlined call per operand.

func narrowBiased1(t *[6][256]uint64, p []byte, sw uint32) (f0, f1, f2, f3 uint64) {
	_ = p[3]
	t0 := &t[0]
	m0 := t0[p[0]]
	k0 := narrowSign[sw>>0&0xFF]
	f0 = (m0 ^ k0) + (k0 & swarLow)
	m1 := t0[p[1]]
	k1 := narrowSign[sw>>8&0xFF]
	f1 = (m1 ^ k1) + (k1 & swarLow)
	m2 := t0[p[2]]
	k2 := narrowSign[sw>>16&0xFF]
	f2 = (m2 ^ k2) + (k2 & swarLow)
	m3 := t0[p[3]]
	k3 := narrowSign[sw>>24&0xFF]
	f3 = (m3 ^ k3) + (k3 & swarLow)
	return f0, f1, f2, f3
}

func narrowBiased2(t *[6][256]uint64, p []byte, sw uint32) (f0, f1, f2, f3 uint64) {
	_ = p[7]
	t0 := &t[0]
	t1 := &t[1]
	m0 := t0[p[0]] | t1[p[1]]
	k0 := narrowSign[sw>>0&0xFF]
	f0 = (m0 ^ k0) + (k0 & swarLow)
	m1 := t0[p[2]] | t1[p[3]]
	k1 := narrowSign[sw>>8&0xFF]
	f1 = (m1 ^ k1) + (k1 & swarLow)
	m2 := t0[p[4]] | t1[p[5]]
	k2 := narrowSign[sw>>16&0xFF]
	f2 = (m2 ^ k2) + (k2 & swarLow)
	m3 := t0[p[6]] | t1[p[7]]
	k3 := narrowSign[sw>>24&0xFF]
	f3 = (m3 ^ k3) + (k3 & swarLow)
	return f0, f1, f2, f3
}

func narrowBiased3(t *[6][256]uint64, p []byte, sw uint32) (f0, f1, f2, f3 uint64) {
	_ = p[11]
	t0 := &t[0]
	t1 := &t[1]
	t2 := &t[2]
	m0 := t0[p[0]] | t1[p[1]] | t2[p[2]]
	k0 := narrowSign[sw>>0&0xFF]
	f0 = (m0 ^ k0) + (k0 & swarLow)
	m1 := t0[p[3]] | t1[p[4]] | t2[p[5]]
	k1 := narrowSign[sw>>8&0xFF]
	f1 = (m1 ^ k1) + (k1 & swarLow)
	m2 := t0[p[6]] | t1[p[7]] | t2[p[8]]
	k2 := narrowSign[sw>>16&0xFF]
	f2 = (m2 ^ k2) + (k2 & swarLow)
	m3 := t0[p[9]] | t1[p[10]] | t2[p[11]]
	k3 := narrowSign[sw>>24&0xFF]
	f3 = (m3 ^ k3) + (k3 & swarLow)
	return f0, f1, f2, f3
}

func narrowBiased4(t *[6][256]uint64, p []byte, sw uint32) (f0, f1, f2, f3 uint64) {
	_ = p[15]
	t0 := &t[0]
	t1 := &t[1]
	t2 := &t[2]
	t3 := &t[3]
	m0 := t0[p[0]] | t1[p[1]] | t2[p[2]] | t3[p[3]]
	k0 := narrowSign[sw>>0&0xFF]
	f0 = (m0 ^ k0) + (k0 & swarLow)
	m1 := t0[p[4]] | t1[p[5]] | t2[p[6]] | t3[p[7]]
	k1 := narrowSign[sw>>8&0xFF]
	f1 = (m1 ^ k1) + (k1 & swarLow)
	m2 := t0[p[8]] | t1[p[9]] | t2[p[10]] | t3[p[11]]
	k2 := narrowSign[sw>>16&0xFF]
	f2 = (m2 ^ k2) + (k2 & swarLow)
	m3 := t0[p[12]] | t1[p[13]] | t2[p[14]] | t3[p[15]]
	k3 := narrowSign[sw>>24&0xFF]
	f3 = (m3 ^ k3) + (k3 & swarLow)
	return f0, f1, f2, f3
}

func narrowBiased5(t *[6][256]uint64, p []byte, sw uint32) (f0, f1, f2, f3 uint64) {
	_ = p[19]
	t0 := &t[0]
	t1 := &t[1]
	t2 := &t[2]
	t3 := &t[3]
	t4 := &t[4]
	m0 := t0[p[0]] | t1[p[1]] | t2[p[2]] | t3[p[3]] | t4[p[4]]
	k0 := narrowSign[sw>>0&0xFF]
	f0 = (m0 ^ k0) + (k0 & swarLow)
	m1 := t0[p[5]] | t1[p[6]] | t2[p[7]] | t3[p[8]] | t4[p[9]]
	k1 := narrowSign[sw>>8&0xFF]
	f1 = (m1 ^ k1) + (k1 & swarLow)
	m2 := t0[p[10]] | t1[p[11]] | t2[p[12]] | t3[p[13]] | t4[p[14]]
	k2 := narrowSign[sw>>16&0xFF]
	f2 = (m2 ^ k2) + (k2 & swarLow)
	m3 := t0[p[15]] | t1[p[16]] | t2[p[17]] | t3[p[18]] | t4[p[19]]
	k3 := narrowSign[sw>>24&0xFF]
	f3 = (m3 ^ k3) + (k3 & swarLow)
	return f0, f1, f2, f3
}

func narrowBiased6(t *[6][256]uint64, p []byte, sw uint32) (f0, f1, f2, f3 uint64) {
	_ = p[23]
	t0 := &t[0]
	t1 := &t[1]
	t2 := &t[2]
	t3 := &t[3]
	t4 := &t[4]
	t5 := &t[5]
	m0 := t0[p[0]] | t1[p[1]] | t2[p[2]] | t3[p[3]] | t4[p[4]] | t5[p[5]]
	k0 := narrowSign[sw>>0&0xFF]
	f0 = (m0 ^ k0) + (k0 & swarLow)
	m1 := t0[p[6]] | t1[p[7]] | t2[p[8]] | t3[p[9]] | t4[p[10]] | t5[p[11]]
	k1 := narrowSign[sw>>8&0xFF]
	f1 = (m1 ^ k1) + (k1 & swarLow)
	m2 := t0[p[12]] | t1[p[13]] | t2[p[14]] | t3[p[15]] | t4[p[16]] | t5[p[17]]
	k2 := narrowSign[sw>>16&0xFF]
	f2 = (m2 ^ k2) + (k2 & swarLow)
	m3 := t0[p[18]] | t1[p[19]] | t2[p[20]] | t3[p[21]] | t4[p[22]] | t5[p[23]]
	k3 := narrowSign[sw>>24&0xFF]
	f3 = (m3 ^ k3) + (k3 & swarLow)
	return f0, f1, f2, f3
}

// narrowBiasedTab dispatches on the residual width (1..6).
var narrowBiasedTab = [7]func(t *[6][256]uint64, p []byte, sw uint32) (uint64, uint64, uint64, uint64){
	nil, narrowBiased1, narrowBiased2, narrowBiased3, narrowBiased4, narrowBiased5, narrowBiased6,
}

// narrowFinish turns four bias-128 sum words into a packed output block:
// movemask signs, SWAR abs, width from the folded magnitude OR, funnel
// compress. The output width is at most 7 (|da|+|db| <= 126), which the
// three funnel steps of narrowCompress pack like any other.
func narrowFinish(dst []byte, f0, f1, f2, f3 uint64) int {
	u0 := narrowAbs(f0)
	u1 := narrowAbs(f1)
	u2 := narrowAbs(f2)
	u3 := narrowAbs(f3)
	om := u0 | u1 | u2 | u3
	om |= om >> 32
	om |= om >> 16
	om |= om >> 8
	c := bits.Len32(uint32(om & 0xFF))
	dst[0] = byte(c)
	if c == 0 {
		return 1
	}
	dst[1] = byte((^f0 & swarHigh) * swarGather >> 56)
	dst[2] = byte((^f1 & swarHigh) * swarGather >> 56)
	dst[3] = byte((^f2 & swarHigh) * swarGather >> 56)
	dst[4] = byte((^f3 & swarHigh) * swarGather >> 56)
	co := uint(c)
	keep1 := ((uint64(1) << co) - 1) * 0x0001000100010001
	keep2 := ((uint64(1) << (2 * co)) - 1) * 0x0000000100000001
	keep3 := (uint64(1) << (4 * co)) - 1
	var wbuf [40]byte
	out := dst[5:]
	direct := len(out) >= 4*c+fusedSlack
	w := out
	if !direct {
		w = wbuf[:]
	}
	narrowCompress(w, 0, u0, co, keep1, keep2, keep3)
	narrowCompress(w, 1, u1, co, keep1, keep2, keep3)
	narrowCompress(w, 2, u2, co, keep1, keep2, keep3)
	narrowCompress(w, 3, u3, co, keep1, keep2, keep3)
	if !direct {
		copy(out, wbuf[:4*co])
	}
	return 5 + 4*c
}
