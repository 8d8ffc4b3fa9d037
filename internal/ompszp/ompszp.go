// Package ompszp implements the ompSZp baseline of the hZCCL paper: a CPU
// port of cuSZp's GPU parallelism strategy, used as the compression
// baseline in Tables III/IV and Figure 6.
//
// It deliberately keeps the design decisions the paper identifies as
// suboptimal on CPUs, because it exists to be compared against:
//
//   - Single-layer block partitioning: the input is one flat sequence of
//     small blocks; worker threads are assigned blocks in a strided
//     (round-robin) pattern, hopping between distant memory regions
//     exactly as GPU thread blocks do.
//   - One outlier per small block: every block stores its first quantized
//     value (4 bytes), versus fZ-light's single outlier per thread-chunk.
//   - Unfused quantization and prediction: quantization materializes a
//     full int32 copy of the dataset, and prediction reads it back in a
//     second pass, doubling memory traffic.
//   - A global synchronization between the metadata pass and the encoding
//     pass (cuSZp's grid-wide sync), implemented as a serial prefix sum
//     over per-block sizes.
//   - Bit-shuffle encoding: magnitudes are transposed one bit plane at a
//     time rather than byte planes + residual bits.
//   - Zero-block elision: blocks whose raw values are all exactly 0.0 are
//     stored as a 1-byte marker with no outlier. (This is the feature that
//     lets ompSZp beat fZ-light on very sparse data such as RTM
//     Simulation Setting 1 at loose bounds — Table III.)
//   - float32 quantization arithmetic, as on the GPU; reconstruction
//     quality is marginally below fZ-light's float64 path.
package ompszp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"hzccl/internal/bitio"
	"hzccl/internal/bufpool"
)

// DefaultBlockSize matches cuSZp's 32-element blocks.
const DefaultBlockSize = 32

// zeroMarker tags a block whose raw values were all exactly zero.
const zeroMarker = 0xFF

// quantLimit bounds |v|/(2·eb) so float32 arithmetic keeps integer
// resolution.
const quantLimit = 1 << 21

// Errors returned by the codec.
var (
	ErrBadParams  = errors.New("ompszp: invalid parameters")
	ErrRange      = errors.New("ompszp: value exceeds float32 quantization range")
	ErrNonFinite  = errors.New("ompszp: input contains NaN or Inf")
	ErrCorrupt    = errors.New("ompszp: corrupt or truncated stream")
	ErrBadMagic   = errors.New("ompszp: not an ompSZp stream")
	ErrBadVersion = errors.New("ompszp: unsupported stream version")
)

// Params configures compression.
type Params struct {
	// ErrorBound is the absolute error bound. Must be > 0.
	ErrorBound float64
	// BlockSize is the small-block length (default 32).
	BlockSize int
	// Threads is the number of strided workers (default 1).
	Threads int
}

func (p Params) withDefaults() Params {
	if p.BlockSize == 0 {
		p.BlockSize = DefaultBlockSize
	}
	if p.Threads <= 0 {
		p.Threads = 1
	}
	return p
}

const (
	magic       = "OSZ1"
	version     = 1
	fixedHeader = 24
)

// Header describes a compressed ompSZp stream.
type Header struct {
	ErrorBound float64
	BlockSize  int
	DataLen    int
}

// blockMeta is the per-block metadata produced by the first pass.
type blockMeta struct {
	codeLen int8 // -1 for zero block
	outlier int32
	size    int32 // encoded bytes incl. marker
}

// metaPool recycles the per-call block-metadata slices of CompressInto so
// the steady state performs no heap allocations. The *[]blockMeta boxes
// sync.Pool requires are themselves recycled through metaBoxes, so a
// steady-state get/put cycle allocates nothing (same scheme as bufpool).
var (
	metaPool  sync.Pool
	metaBoxes sync.Pool
)

func getMetas(n int) []blockMeta {
	if x := metaPool.Get(); x != nil {
		box := x.(*[]blockMeta)
		s := *box
		*box = nil
		metaBoxes.Put(box)
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]blockMeta, n, n+n/4)
}

func putMetas(s []blockMeta) {
	var box *[]blockMeta
	if x := metaBoxes.Get(); x != nil {
		box = x.(*[]blockMeta)
	} else {
		box = new([]blockMeta)
	}
	*box = s[:0]
	metaPool.Put(box)
}

// CompressBound returns a dst size always sufficient for CompressInto of
// n float32 values under p: every block costs at most a marker, an
// outlier, its sign bytes and 32 full bit planes.
func CompressBound(n int, p Params) int {
	p = p.withDefaults()
	B := p.BlockSize
	nblocks := (n + B - 1) / B
	return fixedHeader + nblocks*(5+bitio.SignBytes(B)+32*((B+7)/8))
}

// Compress compresses data with the cuSZp-style two-pass pipeline.
func Compress(data []float32, p Params) ([]byte, error) {
	out := make([]byte, CompressBound(len(data), p))
	n, err := CompressInto(out, data, p)
	if err != nil {
		return nil, err
	}
	return out[:n:n], nil
}

// CompressInto compresses data into dst (at least CompressBound bytes)
// and returns the stream size. All scratch — the global quantization
// array, block metadata, the offset scan and the per-worker delta/
// magnitude buffers — is pooled, so the steady state allocates nothing
// beyond the goroutines of multi-threaded runs.
func CompressInto(dst []byte, data []float32, p Params) (int, error) {
	p = p.withDefaults()
	if !(p.ErrorBound > 0) || math.IsInf(p.ErrorBound, 0) {
		return 0, fmt.Errorf("%w: ErrorBound %v", ErrBadParams, p.ErrorBound)
	}
	if len(dst) < CompressBound(len(data), p) {
		return 0, fmt.Errorf("%w: dst too small", ErrBadParams)
	}
	B := p.BlockSize
	nblocks := (len(data) + B - 1) / B

	// Pass 1 (unfused): quantize the whole input into a global integer
	// array, then derive per-block prediction metadata from it.
	quant := bufpool.Int32s(len(data))
	defer bufpool.PutInt32s(quant)
	metas := getMetas(nblocks)
	defer putMetas(metas)
	recip := float32(1 / (2 * p.ErrorBound))
	if p.Threads <= 1 {
		// Serial fast path: plain loop, no closures, no mutex — keeps the
		// single-threaded steady state allocation-free.
		for bi := 0; bi < nblocks; bi++ {
			start := bi * B
			end := start + B
			if end > len(data) {
				end = len(data)
			}
			m, err := quantizeBlock(data[start:end], quant[start:end], recip)
			if err != nil {
				return 0, err
			}
			metas[bi] = m
		}
	} else {
		var pass1Err error
		var mu sync.Mutex
		strided(nblocks, p.Threads, func(bi, _ int) {
			start := bi * B
			end := start + B
			if end > len(data) {
				end = len(data)
			}
			m, err := quantizeBlock(data[start:end], quant[start:end], recip)
			if err != nil {
				mu.Lock()
				if pass1Err == nil {
					pass1Err = err
				}
				mu.Unlock()
				return
			}
			metas[bi] = m
		})
		if pass1Err != nil {
			return 0, pass1Err
		}
	}

	// Global synchronization: a serial prefix sum over block sizes (the
	// CPU analogue of cuSZp's grid sync + scan).
	offsets := bufpool.Int64s(nblocks + 1)
	defer bufpool.PutInt64s(offsets)
	offsets[0] = 0
	for i, m := range metas {
		offsets[i+1] = offsets[i] + int64(m.size)
	}

	writeHeader(dst, p.ErrorBound, B, len(data))

	// Pass 2: encode each block at its offset, again strided. Each
	// worker owns one pooled delta/magnitude scratch pair.
	if p.Threads <= 1 {
		sc := encodeScratch{deltas: bufpool.Int32s(B), mags: bufpool.Uint32s(B)}
		for bi := 0; bi < nblocks; bi++ {
			start := bi * B
			end := start + B
			if end > len(data) {
				end = len(data)
			}
			encodeBlock(dst[fixedHeader+offsets[bi]:fixedHeader+offsets[bi+1]],
				quant[start:end], metas[bi], &sc)
		}
		bufpool.PutInt32s(sc.deltas)
		bufpool.PutUint32s(sc.mags)
		return int(int64(fixedHeader) + offsets[nblocks]), nil
	}
	workers := p.Threads
	if workers > nblocks {
		workers = nblocks
	}
	scratch := make([]encodeScratch, 0, 8)
	for w := 0; w < workers; w++ {
		scratch = append(scratch, encodeScratch{
			deltas: bufpool.Int32s(B),
			mags:   bufpool.Uint32s(B),
		})
	}
	defer func() {
		for _, s := range scratch {
			bufpool.PutInt32s(s.deltas)
			bufpool.PutUint32s(s.mags)
		}
	}()
	strided(nblocks, p.Threads, func(bi, w int) {
		start := bi * B
		end := start + B
		if end > len(data) {
			end = len(data)
		}
		encodeBlock(dst[fixedHeader+offsets[bi]:fixedHeader+offsets[bi+1]],
			quant[start:end], metas[bi], &scratch[w])
	})
	return int(int64(fixedHeader) + offsets[nblocks]), nil
}

// encodeScratch is one worker's reusable delta/magnitude buffers.
type encodeScratch struct {
	deltas []int32
	mags   []uint32
}

func quantizeBlock(blk []float32, q []int32, recip float32) (blockMeta, error) {
	zero := true
	for i, v := range blk {
		if v != 0 {
			zero = false
		}
		// The conversion rounds the product to float32 before the ±0.5, so no
		// architecture fuses the two into one multiply-add (cf. fzlight.quantise).
		x := float32(v * recip)
		if !(x < quantLimit && x > -quantLimit) {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				return blockMeta{}, ErrNonFinite
			}
			return blockMeta{}, ErrRange
		}
		if x >= 0 {
			q[i] = int32(x + 0.5)
		} else {
			q[i] = int32(x - 0.5)
		}
	}
	if zero {
		return blockMeta{codeLen: -1, size: 1}, nil
	}
	// Second read of the quantized values for prediction (unfused).
	var maxmag uint32
	prev := q[0]
	for i := 1; i < len(q); i++ {
		d := q[i] - prev
		prev = q[i]
		m := uint32(d)
		if d < 0 {
			m = uint32(-d)
		}
		if m > maxmag {
			maxmag = m
		}
	}
	c := bits.Len32(maxmag)
	size := 1 + 4 // marker + per-block outlier
	if c > 0 {
		size += bitio.SignBytes(len(q)) + c*((len(q)+7)/8)
	}
	return blockMeta{codeLen: int8(c), outlier: q[0], size: int32(size)}, nil
}

func encodeBlock(dst []byte, q []int32, m blockMeta, sc *encodeScratch) {
	if m.codeLen < 0 {
		dst[0] = zeroMarker
		return
	}
	c := int(m.codeLen)
	dst[0] = byte(c)
	binary.LittleEndian.PutUint32(dst[1:], uint32(m.outlier))
	if c == 0 {
		return
	}
	n := len(q)
	deltas := sc.deltas[:n]
	mags := sc.mags[:n]
	mags[0] = 0 // the delta loop below assigns indices 1..n-1 only
	prev := q[0]
	deltas[0] = 0
	for i := 1; i < n; i++ {
		d := q[i] - prev
		prev = q[i]
		deltas[i] = d
		if d < 0 {
			mags[i] = uint32(-d)
		} else {
			mags[i] = uint32(d)
		}
	}
	o := 5
	o += bitio.PackSigns(dst[o:], deltas)
	bitio.BitShuffle(dst[o:], mags, c)
}

// Decompress decodes a stream produced by Compress.
func Decompress(comp []byte) ([]float32, error) {
	h, err := ParseHeader(comp)
	if err != nil {
		return nil, err
	}
	return DecompressThreads(comp, h, 1)
}

// DecompressThreads decodes with the given worker count (strided blocks,
// after a serial offset-scan pass — the decompression-side analogue of the
// global synchronization).
func DecompressThreads(comp []byte, h *Header, threads int) ([]float32, error) {
	out := make([]float32, h.DataLen)
	if err := DecompressInto(out, comp, h, threads); err != nil {
		return nil, err
	}
	return out, nil
}

// DecompressInto decodes a stream into dst, which must hold exactly
// h.DataLen values. The offset scan and the per-worker delta/magnitude
// scratch are pooled, so single-threaded steady-state decompression
// performs zero heap allocations.
func DecompressInto(dst []float32, comp []byte, h *Header, threads int) error {
	if len(dst) != h.DataLen {
		return fmt.Errorf("%w: dst length %d, want %d", ErrBadParams, len(dst), h.DataLen)
	}
	B := h.BlockSize
	nblocks := (h.DataLen + B - 1) / B
	// Offset scan: walk the markers to find where each block starts.
	offsets := bufpool.Int64s(nblocks + 1)
	defer bufpool.PutInt64s(offsets)
	o := int64(fixedHeader)
	for bi := 0; bi < nblocks; bi++ {
		offsets[bi] = o
		if o >= int64(len(comp)) {
			return ErrCorrupt
		}
		start := bi * B
		end := start + B
		if end > h.DataLen {
			end = h.DataLen
		}
		n := end - start
		mk := comp[o]
		switch {
		case mk == zeroMarker:
			o++
		case mk == 0:
			o += 5
		case int(mk) <= 32:
			o += int64(5 + bitio.SignBytes(n) + int(mk)*((n+7)/8))
		default:
			return fmt.Errorf("%w: marker %d", ErrCorrupt, mk)
		}
	}
	offsets[nblocks] = o
	if o != int64(len(comp)) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, int64(len(comp))-o)
	}

	eb2 := 2 * h.ErrorBound
	if threads <= 1 {
		// Serial fast path: no closures, no mutex, one pooled scratch pair.
		sc := encodeScratch{deltas: bufpool.Int32s(B), mags: bufpool.Uint32s(B)}
		for bi := 0; bi < nblocks; bi++ {
			start := bi * B
			end := start + B
			if end > h.DataLen {
				end = h.DataLen
			}
			if err := decodeBlock(comp[offsets[bi]:offsets[bi+1]], dst[start:end], eb2, &sc); err != nil {
				bufpool.PutInt32s(sc.deltas)
				bufpool.PutUint32s(sc.mags)
				return err
			}
		}
		bufpool.PutInt32s(sc.deltas)
		bufpool.PutUint32s(sc.mags)
		return nil
	}
	workers := threads
	if workers > nblocks {
		workers = nblocks
	}
	scratch := make([]encodeScratch, 0, 8)
	for w := 0; w < workers; w++ {
		scratch = append(scratch, encodeScratch{
			deltas: bufpool.Int32s(B),
			mags:   bufpool.Uint32s(B),
		})
	}
	defer func() {
		for _, s := range scratch {
			bufpool.PutInt32s(s.deltas)
			bufpool.PutUint32s(s.mags)
		}
	}()
	var decErr error
	var mu sync.Mutex
	strided(nblocks, threads, func(bi, w int) {
		start := bi * B
		end := start + B
		if end > h.DataLen {
			end = h.DataLen
		}
		if err := decodeBlock(comp[offsets[bi]:offsets[bi+1]], dst[start:end], eb2, &scratch[w]); err != nil {
			mu.Lock()
			if decErr == nil {
				decErr = err
			}
			mu.Unlock()
		}
	})
	return decErr
}

func decodeBlock(src []byte, dst []float32, eb2 float64, sc *encodeScratch) error {
	if len(src) < 1 {
		return ErrCorrupt
	}
	if src[0] == zeroMarker {
		for i := range dst {
			dst[i] = 0
		}
		return nil
	}
	c := int(src[0])
	if len(src) < 5 {
		return ErrCorrupt
	}
	outlier := int32(binary.LittleEndian.Uint32(src[1:]))
	n := len(dst)
	acc := outlier
	if c == 0 {
		v := float32(eb2 * float64(acc))
		for i := range dst {
			dst[i] = v
		}
		return nil
	}
	need := 5 + bitio.SignBytes(n) + c*((n+7)/8)
	if len(src) < need {
		return ErrCorrupt
	}
	mags := sc.mags[:n]
	deltas := sc.deltas[:n]
	for i := range mags {
		mags[i] = 0 // BitUnshuffle ORs bit planes into its target
	}
	o := 5 + bitio.SignBytes(n)
	bitio.BitUnshuffle(src[o:], mags, c)
	for i := range deltas {
		deltas[i] = int32(mags[i])
	}
	bitio.ApplySigns(src[5:], deltas)
	for i := 0; i < n; i++ {
		acc += deltas[i]
		dst[i] = float32(eb2 * float64(acc))
	}
	return nil
}

// strided runs fn(blockIndex, worker) for every block, assigning blocks
// to workers round-robin (worker w handles blocks w, w+T, w+2T, ...),
// reproducing the GPU-style access pattern. The worker index lets call
// sites hand each goroutine its own scratch. Threads <= 1 runs inline on
// worker 0 with no goroutine or WaitGroup traffic.
func strided(nblocks, threads int, fn func(bi, worker int)) {
	if threads <= 1 || nblocks <= 1 {
		for i := 0; i < nblocks; i++ {
			fn(i, 0)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < nblocks; i += threads {
				fn(i, w)
			}
		}(w)
	}
	wg.Wait()
}

func writeHeader(dst []byte, eb float64, blockSize, dataLen int) {
	copy(dst, magic)
	dst[4] = version
	dst[5] = 0
	binary.LittleEndian.PutUint16(dst[6:], uint16(blockSize))
	binary.LittleEndian.PutUint64(dst[8:], math.Float64bits(eb))
	binary.LittleEndian.PutUint64(dst[16:], uint64(dataLen))
}

// ParseHeader validates and decodes the stream header.
func ParseHeader(comp []byte) (*Header, error) {
	if len(comp) < fixedHeader {
		return nil, ErrCorrupt
	}
	if string(comp[:4]) != magic {
		return nil, ErrBadMagic
	}
	if comp[4] != version {
		return nil, fmt.Errorf("%w: version %d", ErrBadVersion, comp[4])
	}
	h := &Header{
		BlockSize:  int(binary.LittleEndian.Uint16(comp[6:])),
		ErrorBound: math.Float64frombits(binary.LittleEndian.Uint64(comp[8:])),
		DataLen:    int(binary.LittleEndian.Uint64(comp[16:])),
	}
	if h.BlockSize < 1 || h.DataLen < 0 || !(h.ErrorBound > 0) {
		return nil, ErrCorrupt
	}
	return h, nil
}
