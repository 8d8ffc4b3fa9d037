package fzlight

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"hzccl/internal/bufpool"
)

// 2D support (format version 2). The paper's future work calls for
// tailoring the compression to application data characteristics; for
// image-like fields (CESM-ATM slices, stacked exposures) the 1D delta
// leaves vertical structure on the table. Version-2 containers use the 2D
// Lorenzo predictor
//
//	r(i,j) = q(i,j) − q(i,j−1) − q(i−1,j) + q(i−1,j−1)
//
// which — like the 1D delta — is *linear* in the quantized values, so
// version-2 streams remain additively homomorphic: hzdyn.Add works on
// them unchanged, block by block, and Decompress(Add(a,b)) still equals
// Decompress(a)+Decompress(b) exactly in the quantized domain.
//
// Chunks partition rows (each chunk is a contiguous band of rows,
// predicted independently), so multi-threaded compression, parallel
// decompression and per-chunk homomorphic reduction all carry over.
//
//	version-2 fixed header = version-1 fields + uint32 width
const fixedHeader2 = 32

// Compress2D compresses a row-major height×width field with the 2D
// Lorenzo predictor. p.Threads partitions rows.
func Compress2D(data []float32, height, width int, p Params) ([]byte, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	if height < 0 || width < 0 || height*width != len(data) {
		return nil, fmt.Errorf("%w: dims %dx%d for %d values", ErrBadParams, height, width, len(data))
	}
	if width == 0 {
		width = 1 // degenerate empty container; keeps the header valid
	}
	numChunks := p.Threads
	if numChunks > height {
		numChunks = height
	}
	if numChunks < 1 {
		numChunks = 1
	}
	h := Header{
		ErrorBound: p.ErrorBound,
		BlockSize:  p.BlockSize,
		NumChunks:  numChunks,
		DataLen:    len(data),
		Version:    2,
		Width:      width,
		ChunkSizes: make([]uint32, numChunks),
	}

	chunks := make([][]byte, numChunks)
	bufs := make([][]byte, numChunks)
	errs := make([]error, numChunks)
	recip := 1 / (2 * p.ErrorBound)

	work := func(i int) {
		rs, re := ChunkBounds(height, numChunks, i)
		n := (re - rs) * width
		buf := bufpool.Bytes(worstChunkBytes(n, p.BlockSize))
		bufs[i] = buf
		written, err := compressChunk2D(buf, data[rs*width:re*width], width, recip, p.BlockSize)
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
	out := make([]byte, headerBytes2(numChunks)+total)
	o := h.marshal2(out)
	for i, c := range chunks {
		o += copy(out[o:], c)
		bufpool.PutBytes(bufs[i])
	}
	return out[:o], nil
}

func headerBytes2(numChunks int) int { return fixedHeader2 + 4*numChunks }

func (h *Header) marshal2(dst []byte) int {
	copy(dst, magic)
	dst[4] = 2
	dst[5] = 0
	binary.LittleEndian.PutUint16(dst[6:], uint16(h.BlockSize))
	binary.LittleEndian.PutUint64(dst[8:], math.Float64bits(h.ErrorBound))
	binary.LittleEndian.PutUint32(dst[16:], uint32(h.NumChunks))
	binary.LittleEndian.PutUint64(dst[20:], uint64(h.DataLen))
	binary.LittleEndian.PutUint32(dst[28:], uint32(h.Width))
	o := fixedHeader2
	for _, s := range h.ChunkSizes {
		binary.LittleEndian.PutUint32(dst[o:], s)
		o += 4
	}
	return o
}

// compressChunk2D encodes a band of rows: the first row of the band uses
// the 1D delta (bands are independent), later rows the 2D Lorenzo
// predictor. Residuals stream through the same block encoder as 1D.
func compressChunk2D(dst []byte, band []float32, width int, recip float64, B int) (int, error) {
	putInt32(dst, 0)
	o := 4
	if len(band) == 0 {
		return o, nil
	}
	rows := len(band) / width
	q := make([]int32, len(band)) // quantized values, needed for row context
	// Quantize everything first (the row predictor needs random access to
	// the previous row).
	for i, v := range band {
		qi, err := quantise(float64(v), recip)
		if err != nil {
			return 0, err
		}
		q[i] = qi
	}
	outlier := q[0]

	// Residual stream in scan order.
	res := make([]int32, len(band))
	for j := 0; j < width; j++ {
		if j == 0 {
			res[0] = 0 // outlier slot
		} else {
			res[j] = q[j] - q[j-1]
		}
	}
	for i := 1; i < rows; i++ {
		row := i * width
		prev := row - width
		res[row] = q[row] - q[prev] // first column: vertical delta
		for j := 1; j < width; j++ {
			res[row+j] = q[row+j] - q[row+j-1] - q[prev+j] + q[prev+j-1]
		}
	}

	// Block-encode the residual stream.
	scratch := make([]uint32, B)
	var mscratch [32]uint32
	for base := 0; base < len(res); base += B {
		end := base + B
		if end > len(res) {
			end = len(res)
		}
		blk := res[base:end]
		if len(blk) == 32 {
			o += encodeResiduals32(dst[o:], blk, &mscratch)
		} else {
			o += EncodeBlock(dst[o:], blk, scratch)
		}
	}
	putInt32(dst, outlier)
	return o, nil
}

// encodeResiduals32 encodes 32 already-computed residuals (EncodeBlock's
// fast path without the generic-length preamble).
func encodeResiduals32(dst []byte, p []int32, mscratch *[32]uint32) int {
	return EncodeBlock(dst, p, mscratch[:])
}

// decompressChunk2D reverses compressChunk2D.
func decompressChunk2D(src []byte, dst []float32, width int, eb2 float64, B int) error {
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
	rows := len(dst) / width
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
	// Invert the predictor: first row is a prefix sum from the outlier,
	// later rows invert the Lorenzo stencil.
	q := make([]int32, len(dst))
	q[0] = outlier
	for j := 1; j < width; j++ {
		q[j] = q[j-1] + res[j]
	}
	for i := 1; i < rows; i++ {
		row := i * width
		prev := row - width
		q[row] = q[prev] + res[row]
		for j := 1; j < width; j++ {
			q[row+j] = res[row+j] + q[row+j-1] + q[prev+j] - q[prev+j-1]
		}
	}
	for i, v := range q {
		dst[i] = float32(eb2 * float64(v))
	}
	return nil
}

// parseHeader2 decodes a version-2 header (caller verified magic+version).
func parseHeader2(comp []byte) (*Header, error) {
	if len(comp) < fixedHeader2 {
		return nil, ErrCorrupt
	}
	rawLen := binary.LittleEndian.Uint64(comp[20:])
	h := &Header{
		Version:    2,
		BlockSize:  int(binary.LittleEndian.Uint16(comp[6:])),
		ErrorBound: math.Float64frombits(binary.LittleEndian.Uint64(comp[8:])),
		NumChunks:  int(binary.LittleEndian.Uint32(comp[16:])),
		Width:      int(binary.LittleEndian.Uint32(comp[28:])),
	}
	if h.BlockSize < 1 || h.NumChunks < 1 || h.Width < 1 {
		return nil, ErrCorrupt
	}
	if !(h.ErrorBound > 0) {
		return nil, ErrCorrupt
	}
	payload := uint64(len(comp) - fixedHeader2)
	if uint64(h.NumChunks) > payload/8 {
		return nil, ErrCorrupt
	}
	if rawLen > payload*uint64(h.BlockSize) {
		return nil, ErrCorrupt
	}
	h.DataLen = int(rawLen)
	if h.DataLen%h.Width != 0 {
		return nil, ErrCorrupt
	}
	rows := h.DataLen / h.Width
	if h.DataLen > 0 && h.NumChunks > rows {
		return nil, ErrCorrupt
	}
	if len(comp) < headerBytes2(h.NumChunks) {
		return nil, ErrCorrupt
	}
	h.ChunkSizes = make([]uint32, h.NumChunks)
	o := fixedHeader2
	for i := range h.ChunkSizes {
		h.ChunkSizes[i] = binary.LittleEndian.Uint32(comp[o:])
		o += 4
	}
	return h, nil
}

// chunkOffsets2 mirrors chunkOffsets for version-2 headers.
func (h *Header) chunkOffsets2(compLen int) ([]int, error) {
	offs := make([]int, h.NumChunks+1)
	o := headerBytes2(h.NumChunks)
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

// decompress2D decodes a version-2 container into dst.
func decompress2D(comp []byte, h *Header, dst []float32) error {
	offs, err := h.chunkOffsets2(len(comp))
	if err != nil {
		return err
	}
	rows := 0
	if h.Width > 0 {
		rows = h.DataLen / h.Width
	}
	eb2 := 2 * h.ErrorBound
	errs := make([]error, h.NumChunks)
	work := func(i int) {
		rs, re := ChunkBounds(rows, h.NumChunks, i)
		errs[i] = decompressChunk2D(comp[offs[i]:offs[i+1]], dst[rs*h.Width:re*h.Width],
			h.Width, eb2, h.BlockSize)
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
