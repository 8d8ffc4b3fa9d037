package bitio

import (
	"encoding/binary"
	"math/bits"
)

// The four functions below exist only for the bitio layer of the benchmark
// (benchmark/layers.go), which times them one full 32-element block at a
// time; the codecs call PackPlanes/PackRemainder and their inverses
// directly. A payload is the block's bytes after its marker and sign word:
// 32*(c/8) plane bytes, then 4*(c%8) residual bytes.

// PackMags32 writes the payload of 32 magnitudes with code length c in
// [1,32] into dst and returns the bytes written. Every magnitude must be
// below 1<<c.
func PackMags32(dst []byte, mags *[32]uint32, c int) int {
	o := PackPlanes(dst, mags[:], c/8)
	return o + PackRemainder(dst[o:], mags[:], 8*(c/8), c%8)
}

// UnpackDeltas32 decodes payload p with code length c in [0,32] and sign
// word signW into the signed prediction deltas d.
func UnpackDeltas32(p []byte, signW uint32, c int, d *[32]int32) {
	var mags [32]uint32
	o := UnpackPlanes(p, mags[:], c/8)
	UnpackRemainder(p[o:], mags[:], 8*(c/8), c%8)
	for i, m := range mags {
		neg := -int32(signW >> uint(i) & 1)
		d[i] = (int32(m) ^ neg) - neg
	}
}

// UnpackAddMags32 decodes payload p (code length c in [0,30], sign word
// signW), adds its deltas to d and returns the sums as sign/magnitude:
// mags receives the magnitudes, osign has bit i set where sum i is
// negative, and ormag is the OR of all magnitudes, whose bits.Len32 is the
// sum's code length. d is left as it was.
func UnpackAddMags32(p []byte, signW uint32, c int, d *[32]int32, mags *[32]uint32) (osign, ormag uint32) {
	var e [32]int32
	UnpackDeltas32(p, signW, c, &e)
	for i := range e {
		s := d[i] + e[i]
		g := s >> 31
		mags[i] = uint32((s ^ g) - g)
		osign |= uint32(g&1) << uint(i)
		ormag |= mags[i]
	}
	return osign, ormag
}

// AddBlocks32Narrow sums two payloads pa and pb (code lengths ca, cb in
// [0,30], sign words swa, swb) into a whole output block at dst — marker,
// sign word, payload — and returns its size.
func AddBlocks32Narrow(dst, pa, pb []byte, swa, swb uint32, ca, cb int) int {
	var d [32]int32
	var mags [32]uint32
	UnpackDeltas32(pa, swa, ca, &d)
	osign, ormag := UnpackAddMags32(pb, swb, cb, &d, &mags)
	c := bits.Len32(ormag)
	dst[0] = byte(c)
	if c == 0 {
		return 1
	}
	binary.LittleEndian.PutUint32(dst[1:], osign)
	return 5 + PackMags32(dst[5:], &mags, c)
}
