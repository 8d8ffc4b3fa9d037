package fzlight

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"hzccl/internal/bufpool"
)

// 3D support (format version 3). The paper's application data is
// three-dimensional (RTM 449×449×235, NYX 512³, Hurricane 100×500×500);
// the 3D Lorenzo predictor
//
//	r(z,y,x) = q(z,y,x) − q(z,y,x−1) − q(z,y−1,x) + q(z,y−1,x−1)
//	           − q(z−1,y,x) + q(z−1,y,x−1) + q(z−1,y−1,x) − q(z−1,y−1,x−1)
//
// is, like its 1D and 2D relatives, linear in the quantized values, so
// version-3 containers remain additively homomorphic and hzdyn operates on
// them unchanged. Chunks partition z-planes; the first plane of each chunk
// falls back to the 2D stencil, its first row to the 1D delta.
//
//	version-3 fixed header = version-1 fields + uint32 width + uint32 height
const fixedHeader3 = 36

// Compress3D compresses a depth×height×width field (x fastest) with the
// 3D Lorenzo predictor. p.Threads partitions z-planes.
func Compress3D(data []float32, depth, height, width int, p Params) ([]byte, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	if depth < 0 || height < 0 || width < 0 || depth*height*width != len(data) {
		return nil, fmt.Errorf("%w: dims %dx%dx%d for %d values", ErrBadParams, depth, height, width, len(data))
	}
	if width == 0 {
		width = 1
	}
	if height == 0 {
		height = 1
	}
	numChunks := p.Threads
	if numChunks > depth {
		numChunks = depth
	}
	if numChunks < 1 {
		numChunks = 1
	}
	h := Header{
		ErrorBound: p.ErrorBound,
		BlockSize:  p.BlockSize,
		NumChunks:  numChunks,
		DataLen:    len(data),
		Version:    3,
		Width:      width,
		Height:     height,
		ChunkSizes: make([]uint32, numChunks),
	}
	plane := width * height

	chunks := make([][]byte, numChunks)
	bufs := make([][]byte, numChunks)
	errs := make([]error, numChunks)
	recip := 1 / (2 * p.ErrorBound)

	work := func(i int) {
		zs, ze := ChunkBounds(depth, numChunks, i)
		n := (ze - zs) * plane
		buf := bufpool.Bytes(worstChunkBytes(n, p.BlockSize))
		bufs[i] = buf
		written, err := compressChunk3D(buf, data[zs*plane:ze*plane], width, height, recip, p.BlockSize)
		chunks[i] = buf[:written]
		errs[i] = err
	}
	if numChunks == 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(numChunks)
		for i := 0; i < numChunks; i++ {
			go func(i int) { defer wg.Done(); work(i) }(i)
		}
		wg.Wait()
	}
	total := 0
	for i, c := range chunks {
		if errs[i] != nil {
			return nil, errs[i]
		}
		h.ChunkSizes[i] = uint32(len(c))
		total += len(c)
	}
	out := make([]byte, headerBytes3(numChunks)+total)
	o := h.marshal3(out)
	for i, c := range chunks {
		o += copy(out[o:], c)
		bufpool.PutBytes(bufs[i])
	}
	return out[:o], nil
}

func headerBytes3(numChunks int) int { return fixedHeader3 + 4*numChunks }

func (h *Header) marshal3(dst []byte) int {
	copy(dst, magic)
	dst[4] = 3
	dst[5] = 0
	binary.LittleEndian.PutUint16(dst[6:], uint16(h.BlockSize))
	binary.LittleEndian.PutUint64(dst[8:], math.Float64bits(h.ErrorBound))
	binary.LittleEndian.PutUint32(dst[16:], uint32(h.NumChunks))
	binary.LittleEndian.PutUint64(dst[20:], uint64(h.DataLen))
	binary.LittleEndian.PutUint32(dst[28:], uint32(h.Width))
	binary.LittleEndian.PutUint32(dst[32:], uint32(h.Height))
	o := fixedHeader3
	for _, s := range h.ChunkSizes {
		binary.LittleEndian.PutUint32(dst[o:], s)
		o += 4
	}
	return o
}

// lorenzoResiduals3D computes the residual stream of a z-band in place.
func lorenzoResiduals3D(q []int32, width, height int) []int32 {
	plane := width * height
	planes := len(q) / plane
	res := make([]int32, len(q))
	// plane 0: 2D Lorenzo (first row 1D delta with res[0]=0 for the outlier)
	for j := 1; j < width; j++ {
		res[j] = q[j] - q[j-1]
	}
	for y := 1; y < height; y++ {
		row := y * width
		prev := row - width
		res[row] = q[row] - q[prev]
		for x := 1; x < width; x++ {
			res[row+x] = q[row+x] - q[row+x-1] - q[prev+x] + q[prev+x-1]
		}
	}
	for z := 1; z < planes; z++ {
		p0 := z * plane
		pz := p0 - plane
		// corner
		res[p0] = q[p0] - q[pz]
		// first row (y=0): 2D stencil across x and z
		for x := 1; x < width; x++ {
			res[p0+x] = q[p0+x] - q[p0+x-1] - q[pz+x] + q[pz+x-1]
		}
		for y := 1; y < height; y++ {
			row := p0 + y*width
			prow := row - width
			zrow := row - plane
			zprow := zrow - width
			// first column (x=0): 2D stencil across y and z
			res[row] = q[row] - q[prow] - q[zrow] + q[zprow]
			for x := 1; x < width; x++ {
				res[row+x] = q[row+x] - q[row+x-1] - q[prow+x] + q[prow+x-1] -
					q[zrow+x] + q[zrow+x-1] + q[zprow+x] - q[zprow+x-1]
			}
		}
	}
	return res
}

// invertLorenzo3D reconstructs quantized values from residuals (the exact
// inverse of lorenzoResiduals3D given the outlier in slot 0).
func invertLorenzo3D(res []int32, outlier int32, width, height int) []int32 {
	plane := width * height
	planes := len(res) / plane
	q := make([]int32, len(res))
	q[0] = outlier
	for j := 1; j < width; j++ {
		q[j] = q[j-1] + res[j]
	}
	for y := 1; y < height; y++ {
		row := y * width
		prev := row - width
		q[row] = q[prev] + res[row]
		for x := 1; x < width; x++ {
			q[row+x] = res[row+x] + q[row+x-1] + q[prev+x] - q[prev+x-1]
		}
	}
	for z := 1; z < planes; z++ {
		p0 := z * plane
		pz := p0 - plane
		q[p0] = q[pz] + res[p0]
		for x := 1; x < width; x++ {
			q[p0+x] = res[p0+x] + q[p0+x-1] + q[pz+x] - q[pz+x-1]
		}
		for y := 1; y < height; y++ {
			row := p0 + y*width
			prow := row - width
			zrow := row - plane
			zprow := zrow - width
			q[row] = res[row] + q[prow] + q[zrow] - q[zprow]
			for x := 1; x < width; x++ {
				q[row+x] = res[row+x] + q[row+x-1] + q[prow+x] - q[prow+x-1] +
					q[zrow+x] - q[zrow+x-1] - q[zprow+x] + q[zprow+x-1]
			}
		}
	}
	return q
}

func compressChunk3D(dst []byte, band []float32, width, height int, recip float64, B int) (int, error) {
	putInt32(dst, 0)
	o := 4
	if len(band) == 0 {
		return o, nil
	}
	q := make([]int32, len(band))
	for i, v := range band {
		qi, err := quantise(float64(v), recip)
		if err != nil {
			return 0, err
		}
		q[i] = qi
	}
	outlier := q[0]
	res := lorenzoResiduals3D(q, width, height)
	res[0] = 0

	scratch := make([]uint32, B)
	for base := 0; base < len(res); base += B {
		end := base + B
		if end > len(res) {
			end = len(res)
		}
		o += EncodeBlock(dst[o:], res[base:end], scratch)
	}
	putInt32(dst, outlier)
	return o, nil
}

func decompressChunk3D(src []byte, dst []float32, width, height int, eb2 float64, B int) error {
	if len(src) < 4 {
		return ErrCorrupt
	}
	outlier := getInt32(src)
	o := 4
	if len(dst) == 0 {
		if o != len(src) {
			return ErrCorrupt
		}
		return nil
	}
	res := make([]int32, len(dst))
	scratch := make([]uint32, B)
	for base := 0; base < len(res); base += B {
		end := base + B
		if end > len(res) {
			end = len(res)
		}
		used, err := DecodeBlock(src[o:], res[base:end], scratch)
		if err != nil {
			return err
		}
		o += used
	}
	if o != len(src) {
		return fmt.Errorf("%w: %d trailing bytes in chunk", ErrCorrupt, len(src)-o)
	}
	q := invertLorenzo3D(res, outlier, width, height)
	for i, v := range q {
		dst[i] = float32(eb2 * float64(v))
	}
	return nil
}

func parseHeader3(comp []byte) (*Header, error) {
	if len(comp) < fixedHeader3 {
		return nil, ErrCorrupt
	}
	rawLen := binary.LittleEndian.Uint64(comp[20:])
	h := &Header{
		Version:    3,
		BlockSize:  int(binary.LittleEndian.Uint16(comp[6:])),
		ErrorBound: math.Float64frombits(binary.LittleEndian.Uint64(comp[8:])),
		NumChunks:  int(binary.LittleEndian.Uint32(comp[16:])),
		Width:      int(binary.LittleEndian.Uint32(comp[28:])),
		Height:     int(binary.LittleEndian.Uint32(comp[32:])),
	}
	if h.BlockSize < 1 || h.NumChunks < 1 || h.Width < 1 || h.Height < 1 {
		return nil, ErrCorrupt
	}
	if !(h.ErrorBound > 0) {
		return nil, ErrCorrupt
	}
	payload := uint64(len(comp) - fixedHeader3)
	if uint64(h.NumChunks) > payload/8 {
		return nil, ErrCorrupt
	}
	if rawLen > payload*uint64(h.BlockSize) {
		return nil, ErrCorrupt
	}
	h.DataLen = int(rawLen)
	plane := h.Width * h.Height
	if plane <= 0 || h.DataLen%plane != 0 {
		return nil, ErrCorrupt
	}
	depth := h.DataLen / plane
	if h.DataLen > 0 && h.NumChunks > depth {
		return nil, ErrCorrupt
	}
	if len(comp) < headerBytes3(h.NumChunks) {
		return nil, ErrCorrupt
	}
	h.ChunkSizes = make([]uint32, h.NumChunks)
	o := fixedHeader3
	for i := range h.ChunkSizes {
		h.ChunkSizes[i] = binary.LittleEndian.Uint32(comp[o:])
		o += 4
	}
	return h, nil
}

func (h *Header) chunkOffsets3(compLen int) ([]int, error) {
	offs := make([]int, h.NumChunks+1)
	o := headerBytes3(h.NumChunks)
	for i, s := range h.ChunkSizes {
		offs[i] = o
		o += int(s)
		if o > compLen {
			return nil, ErrCorrupt
		}
	}
	offs[h.NumChunks] = o
	if o != compLen {
		return nil, fmt.Errorf("%w: container size %d, chunks end at %d", ErrCorrupt, compLen, o)
	}
	return offs, nil
}

func decompress3D(comp []byte, h *Header, dst []float32) error {
	offs, err := h.chunkOffsets3(len(comp))
	if err != nil {
		return err
	}
	plane := h.Width * h.Height
	depth := 0
	if plane > 0 {
		depth = h.DataLen / plane
	}
	eb2 := 2 * h.ErrorBound
	errs := make([]error, h.NumChunks)
	work := func(i int) {
		zs, ze := ChunkBounds(depth, h.NumChunks, i)
		errs[i] = decompressChunk3D(comp[offs[i]:offs[i+1]], dst[zs*plane:ze*plane],
			h.Width, h.Height, eb2, h.BlockSize)
	}
	if h.NumChunks == 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(h.NumChunks)
		for i := 0; i < h.NumChunks; i++ {
			go func(i int) { defer wg.Done(); work(i) }(i)
		}
		wg.Wait()
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
