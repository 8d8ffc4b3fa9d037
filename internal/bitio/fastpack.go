package bitio

// pack1…pack7 / unpack1…unpack7 are the paper's encoder, its
// ultra_fast_bit_shifting_x functions, one per residual width x ∈ [1,7].
// Each moves eight magnitudes per iteration through fixed shifts so the
// compiler emits constant-shift, bounds-check-free code. PackRemainder and
// UnpackRemainder call them for every block whose length is a multiple of
// 8. There is no generator: edit each body by hand and keep pack/unpack
// symmetric.

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
