// Package bitio implements the low-level bit packing primitives shared by
// the fZ-light and ompSZp compressors.
//
// Two encoding families are provided:
//
//   - The fZ-light "ultra-fast bit-shifting" fixed-length encoding: for a
//     block of unsigned magnitudes with a common code length c, the complete
//     bytes (c/8 byte planes) are stored first with plain byte loops, then
//     the residual c%8 bits of every value are packed with specialized
//     bit-shifting routines (one per residual width 1..7).
//
//   - The cuSZp-style bit-shuffle encoding used by the ompSZp baseline: the
//     block is transposed at single-bit granularity (one bit plane at a
//     time), which is the slower, GPU-oriented layout the paper compares
//     against.
//
// The homomorphic add has no code of its own here: its portable pipeline ④
// (fzlight.SumBlock) decodes both blocks with these routines, adds, and
// encodes the sum with them. The four …32 functions in block32.go exist
// only for the benchmark's bitio layer.
//
// All routines are allocation-free: callers supply destination slices that
// must be large enough (sizes are computable with SignBytes, PlaneBytes and
// RemainderBytes).
package bitio

// SignBytes returns the number of bytes needed to store one sign bit for
// each of n values.
func SignBytes(n int) int { return (n + 7) / 8 }

// PlaneBytes returns the number of bytes occupied by the complete byte
// planes of n values with code length c (i.e. n * floor(c/8)).
func PlaneBytes(n, c int) int { return n * (c / 8) }

// RemainderBytes returns the number of bytes needed to pack the residual
// c%8 bits of n values.
func RemainderBytes(n, c int) int { return (n*(c%8) + 7) / 8 }

// EncodedBytes returns the total payload size (signs + planes + remainder)
// for a block of n values with code length c. It does not include the
// 1-byte code-length marker.
func EncodedBytes(n, c int) int {
	if c == 0 {
		return 0
	}
	return SignBytes(n) + PlaneBytes(n, c) + RemainderBytes(n, c)
}

// PackSigns writes one sign bit per value (bit set when vals[i] < 0) into
// dst, LSB-first within each byte, and returns the number of bytes written.
func PackSigns(dst []byte, vals []int32) int {
	nb := SignBytes(len(vals))
	for i := 0; i < nb; i++ {
		dst[i] = 0
	}
	for i, v := range vals {
		if v < 0 {
			dst[i>>3] |= 1 << uint(i&7)
		}
	}
	return nb
}

// ApplySigns negates vals[i] wherever the corresponding sign bit in src is
// set. It is the inverse of PackSigns given magnitudes in vals.
func ApplySigns(src []byte, vals []int32) {
	for i := range vals {
		if src[i>>3]&(1<<uint(i&7)) != 0 {
			vals[i] = -vals[i]
		}
	}
}

// PackPlanes stores the low byteCount bytes of every magnitude as byte
// planes: plane k holds byte k of every value, in value order. Returns the
// number of bytes written (len(mags)*byteCount).
func PackPlanes(dst []byte, mags []uint32, byteCount int) int {
	n := len(mags)
	o := 0
	for k := 0; k < byteCount; k++ {
		sh := uint(8 * k)
		for _, m := range mags {
			dst[o] = byte(m >> sh)
			o++
		}
	}
	return n * byteCount
}

// UnpackPlanes reverses PackPlanes, ORing plane bytes into mags. mags must
// be zeroed (or hold only higher bits) on entry.
func UnpackPlanes(src []byte, mags []uint32, byteCount int) int {
	n := len(mags)
	o := 0
	for k := 0; k < byteCount; k++ {
		sh := uint(8 * k)
		for i := range mags {
			mags[i] |= uint32(src[o]) << sh
			o++
		}
	}
	return n * byteCount
}

// PackRemainder packs the rbits residual bits of every magnitude (taken
// from bit positions [shift, shift+rbits)) into dst, LSB-first, and returns
// the number of bytes written. rbits must be in [0,7].
//
// Blocks whose length is a multiple of 8 take the specialized unrolled
// paths pack1..pack7 — the "ultra_fast_bit_shifting_x" routines of the
// paper; other lengths fall back to a generic bit cursor.
func PackRemainder(dst []byte, mags []uint32, shift, rbits int) int {
	if rbits == 0 {
		return 0
	}
	n := len(mags)
	nb := (n*rbits + 7) / 8
	if n%8 == 0 {
		switch rbits {
		case 1:
			pack1(dst, mags, uint(shift))
		case 2:
			pack2(dst, mags, uint(shift))
		case 3:
			pack3(dst, mags, uint(shift))
		case 4:
			pack4(dst, mags, uint(shift))
		case 5:
			pack5(dst, mags, uint(shift))
		case 6:
			pack6(dst, mags, uint(shift))
		case 7:
			pack7(dst, mags, uint(shift))
		}
		return nb
	}
	packGeneric(dst[:nb], mags, uint(shift), uint(rbits))
	return nb
}

// UnpackRemainder reverses PackRemainder, ORing the residual bits back into
// mags at bit position shift. Returns the number of source bytes consumed.
func UnpackRemainder(src []byte, mags []uint32, shift, rbits int) int {
	if rbits == 0 {
		return 0
	}
	n := len(mags)
	nb := (n*rbits + 7) / 8
	if n%8 == 0 {
		switch rbits {
		case 1:
			unpack1(src, mags, uint(shift))
		case 2:
			unpack2(src, mags, uint(shift))
		case 3:
			unpack3(src, mags, uint(shift))
		case 4:
			unpack4(src, mags, uint(shift))
		case 5:
			unpack5(src, mags, uint(shift))
		case 6:
			unpack6(src, mags, uint(shift))
		case 7:
			unpack7(src, mags, uint(shift))
		}
		return nb
	}
	unpackGeneric(src[:nb], mags, uint(shift), uint(rbits))
	return nb
}

func packGeneric(dst []byte, mags []uint32, shift, rbits uint) {
	for i := range dst {
		dst[i] = 0
	}
	mask := uint32(1)<<rbits - 1
	bit := 0
	for _, m := range mags {
		r := (m >> shift) & mask
		for b := uint(0); b < rbits; b++ {
			if r&(1<<b) != 0 {
				dst[bit>>3] |= 1 << uint(bit&7)
			}
			bit++
		}
	}
}

func unpackGeneric(src []byte, mags []uint32, shift, rbits uint) {
	bit := 0
	for i := range mags {
		var r uint32
		for b := uint(0); b < rbits; b++ {
			if src[bit>>3]&(1<<uint(bit&7)) != 0 {
				r |= 1 << b
			}
			bit++
		}
		mags[i] |= r << shift
	}
}

// BitShuffle writes the magnitudes of a block in cuSZp's bit-shuffled
// layout: c bit planes, each holding bit b of every value, LSB-first. It
// returns the number of bytes written: c * ceil(n/8). This is deliberately
// a bit-granular loop — the layout the paper identifies as suboptimal on
// CPUs.
func BitShuffle(dst []byte, mags []uint32, c int) int {
	n := len(mags)
	pb := (n + 7) / 8
	total := c * pb
	for i := 0; i < total; i++ {
		dst[i] = 0
	}
	o := 0
	for b := 0; b < c; b++ {
		bit := uint32(1) << uint(b)
		for i, m := range mags {
			if m&bit != 0 {
				dst[o+(i>>3)] |= 1 << uint(i&7)
			}
		}
		o += pb
	}
	return total
}

// BitUnshuffle reverses BitShuffle, ORing bits into mags (which must be
// zeroed on entry). Returns the number of bytes consumed.
func BitUnshuffle(src []byte, mags []uint32, c int) int {
	n := len(mags)
	pb := (n + 7) / 8
	o := 0
	for b := 0; b < c; b++ {
		bit := uint32(1) << uint(b)
		for i := range mags {
			if src[o+(i>>3)]&(1<<uint(i&7)) != 0 {
				mags[i] |= bit
			}
		}
		o += pb
	}
	return c * pb
}

// UnpackPlanesAssign is UnpackPlanes but plane 0 overwrites mags instead of
// ORing into it, letting decoders skip zero-filling the scratch array when
// at least one full byte plane is present.
func UnpackPlanesAssign(src []byte, mags []uint32, byteCount int) int {
	if byteCount == 0 {
		return 0
	}
	n := len(mags)
	for i := range mags {
		mags[i] = uint32(src[i])
	}
	o := n
	for k := 1; k < byteCount; k++ {
		sh := uint(8 * k)
		for i := range mags {
			mags[i] |= uint32(src[o]) << sh
			o++
		}
	}
	return n * byteCount
}
