package fzlight

import (
	"fmt"

	"hzccl/internal/bufpool"
)

// The Lorenzo layouts (format versions 2 and 3). The paper's application
// data is two- and three-dimensional (CESM-ATM slices, RTM 449×449×235,
// NYX 512³, Hurricane 100×500×500), where the 1D delta leaves the vertical
// and cross-plane structure on the table. The 3D Lorenzo predictor
//
//	r(z,y,x) = q(z,y,x) − q(z,y,x−1) − q(z,y−1,x) + q(z,y−1,x−1)
//	           − q(z−1,y,x) + q(z−1,y,x−1) + q(z−1,y−1,x) − q(z−1,y−1,x−1)
//
// is, like the 1D delta, linear in the quantized values, so Lorenzo
// containers remain additively homomorphic and hzdyn reduces them block by
// block unchanged. Chunks partition z-planes and are predicted
// independently: a neighbour outside the chunk counts as zero, so a chunk's
// first plane uses the 2D stencil and that plane's first row the 1D delta.
// The 2D layout is this codec with height 1 (Compress2D); only its header
// differs, recording a width and no height.

// Compress3D compresses a depth×height×width field (x fastest) with the
// 3D Lorenzo predictor. p.Threads partitions z-planes.
func Compress3D(data []float32, depth, height, width int, p Params) ([]byte, error) {
	return compressLorenzo(data, p, depth, height, width)
}

// compressLorenzo compresses a field of the given dimensions (slowest
// first): two make a version-2 container of rows, three a version-3
// container of planes.
func compressLorenzo(data []float32, p Params, dims ...int) ([]byte, error) {
	n := 1
	for _, d := range dims {
		if d < 0 {
			n = -1
			break
		}
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("%w: dims %v for %d values", ErrBadParams, dims, len(data))
	}
	// An empty field has no planes whichever dimension is zero; the others
	// keep at least 1 so the header stays valid.
	h := Header{Version: len(dims), Width: max(dims[len(dims)-1], 1)}
	if h.Version == 3 {
		h.Height = max(dims[1], 1)
	}
	return compressAny(data, p, h)
}

// lorenzoPred is the 3D Lorenzo prediction of v[i] from its neighbours at
// x−1, y−1 and z−1; x, y and z say which of those lie inside the chunk.
func lorenzoPred(v []int32, i, width, plane int, x, y, z bool) int32 {
	var p int32
	if x {
		p += v[i-1]
	}
	if y {
		p += v[i-width]
		if x {
			p -= v[i-width-1]
		}
	}
	if z {
		j := i - plane
		p += v[j]
		if x {
			p -= v[j-1]
		}
		if y {
			p -= v[j-width]
			if x {
				p += v[j-width-1]
			}
		}
	}
	return p
}

// lorenzoResiduals turns a chunk's quantized values into residuals in
// place. It walks backwards, so every prediction still reads quantized
// neighbours. Slot 0 becomes 0: the chunk outlier carries that value.
func lorenzoResiduals(v []int32, width, plane int) {
	for z := len(v)/plane - 1; z >= 0; z-- {
		for y := plane/width - 1; y >= 0; y-- {
			row := z*plane + y*width
			for x := width - 1; x > 0; x-- {
				v[row+x] -= lorenzoPred(v, row+x, width, plane, true, y > 0, z > 0)
			}
			v[row] -= lorenzoPred(v, row, width, plane, false, y > 0, z > 0)
		}
	}
	v[0] = 0
}

// lorenzoInvert is the inverse of lorenzoResiduals given the chunk
// outlier. It walks forwards, so every prediction reads reconstructed
// neighbours.
func lorenzoInvert(v []int32, outlier int32, width, plane int) {
	v[0] = outlier
	for z := 0; z < len(v)/plane; z++ {
		for y := 0; y < plane/width; y++ {
			row := z*plane + y*width
			v[row] += lorenzoPred(v, row, width, plane, false, y > 0, z > 0)
			for x := 1; x < width; x++ {
				v[row+x] += lorenzoPred(v, row+x, width, plane, true, y > 0, z > 0)
			}
		}
	}
}

// compressChunkLorenzo writes one chunk of whole planes (outlier + encoded
// residual blocks) into dst and returns the number of bytes written.
func compressChunkLorenzo(dst []byte, band []float32, width, plane int, recip float64, B int) (int, error) {
	putInt32(dst, 0)
	o := 4
	if len(band) == 0 {
		return o, nil
	}
	v := bufpool.Int32s(len(band))
	scratch := bufpool.Uint32s(B)
	defer bufpool.PutInt32s(v)
	defer bufpool.PutUint32s(scratch)
	for i, x := range band {
		q, err := quantise(float64(x), recip)
		if err != nil {
			return 0, err
		}
		v[i] = q
	}
	outlier := v[0]
	lorenzoResiduals(v, width, plane)
	for base := 0; base < len(v); base += B {
		o += EncodeBlock(dst[o:], v[base:min(base+B, len(v))], scratch)
	}
	putInt32(dst, outlier)
	return o, nil
}

// decompressChunkLorenzo reverses compressChunkLorenzo.
func decompressChunkLorenzo(src []byte, dst, sums []float32, width, plane int, eb2 float64, B int) error {
	if len(src) < 4 {
		return ErrCorrupt
	}
	o := 4
	v := bufpool.Int32s(len(dst))
	scratch := bufpool.Uint32s(B)
	defer bufpool.PutInt32s(v)
	defer bufpool.PutUint32s(scratch)
	for base := 0; base < len(v); base += B {
		used, err := DecodeBlock(src[o:], v[base:min(base+B, len(v))], scratch)
		if err != nil {
			return err
		}
		o += used
	}
	if o != len(src) {
		return fmt.Errorf("%w: %d trailing bytes in chunk", ErrCorrupt, len(src)-o)
	}
	if len(v) == 0 {
		return nil
	}
	lorenzoInvert(v, getInt32(src), width, plane)
	if sums == nil {
		for i, q := range v {
			dst[i] = float32(eb2 * float64(q))
		}
		return nil
	}
	for i, q := range v {
		dst[i] = sums[i] + float32(eb2*float64(q))
	}
	return nil
}
