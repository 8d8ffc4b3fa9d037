// Package fzlight implements the fZ-light error-bounded lossy compressor
// for float32 scientific data, the CPU-optimized compressor the hZCCL paper
// builds its homomorphic pipeline on.
//
// Design (paper §III-B2, §III-B3):
//
//   - Multi-layer block partitioning: the input is split into large
//     contiguous chunks (Params.Threads of them, the paper's one per
//     thread); each chunk is subdivided into small blocks of BlockSize
//     elements. The chunk count is part of the format. The cores are not:
//     an encode runs its chunks, and block-aligned segments of a long
//     chunk, on up to GOMAXPROCS goroutines, and every block encodes to
//     the same bytes on one core or many (plan.go).
//   - Fused quantization + prediction: each float is quantized to
//     q = round(v / (2·eb)) and immediately delta-predicted against the
//     previous quantized value in the same chunk, in a single pass.
//   - A single 4-byte outlier per chunk: the first quantized value of the
//     chunk is stored raw; its delta slot is forced to zero so the first
//     block's code length is not inflated.
//   - Ultra-fast fixed-length encoding: per small block, a 1-byte code
//     length, packed sign bits, complete byte planes, then the residual
//     bits packed with the specialized bit-shifting routines in bitio.
//
// The format is additively homomorphic: quantized deltas and outliers are
// linear in the input, so two compressed streams with identical geometry
// can be summed block-by-block without decompression (package hzdyn).
package fzlight

import (
	"errors"
	"fmt"
	"math"

	"hzccl/internal/bufpool"
	"hzccl/internal/fanout"
)

// DefaultBlockSize is the small-block length used when Params.BlockSize is
// zero. 32 elements keeps the per-block marker overhead at 1/128 of the raw
// size and lets every block use the fast (multiple-of-8) packing paths.
const DefaultBlockSize = 32

// quantLimit bounds |v|/(2·eb). Keeping quantized values below 2^29
// guarantees chunk-internal deltas fit in 31 bits and one homomorphic
// addition cannot overflow int32 magnitudes mid-stream.
const quantLimit = 1 << 29

// Errors returned by the codec.
var (
	ErrBadParams   = errors.New("fzlight: invalid parameters")
	ErrRange       = errors.New("fzlight: value exceeds quantization range (decrease precision or scale data)")
	ErrCorrupt     = errors.New("fzlight: corrupt or truncated stream")
	ErrBadMagic    = errors.New("fzlight: not an fZ-light stream")
	ErrBadVersion  = errors.New("fzlight: unsupported stream version")
	ErrNonFinite   = errors.New("fzlight: input contains NaN or Inf")
	ErrShortOutput = errors.New("fzlight: output buffer too small")
)

// Params configures compression.
type Params struct {
	// ErrorBound is the absolute error bound eb: every reconstructed value
	// differs from the original by at most eb. Must be > 0, and 2·eb
	// finite.
	ErrorBound float64
	// BlockSize is the small-block length. 0 selects DefaultBlockSize.
	// Multiples of 8 use the fast packing paths.
	BlockSize int
	// Threads is the number of chunks in the container (the paper's one
	// chunk per thread): each chunk has its own outlier, so the bytes
	// depend on it. 0 selects 1. It does not choose the cores: any
	// container is encoded on up to GOMAXPROCS of them, in chunks or in
	// block-aligned segments of a chunk, with the same bytes either way.
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

func (p Params) validate() error {
	if !(p.ErrorBound > 0) || math.IsInf(2*p.ErrorBound, 0) {
		return fmt.Errorf("%w: ErrorBound must be a positive number with 2·ErrorBound finite, got %v", ErrBadParams, p.ErrorBound)
	}
	if p.BlockSize < 1 {
		return fmt.Errorf("%w: BlockSize must be >= 1, got %d", ErrBadParams, p.BlockSize)
	}
	if p.Threads < 1 {
		return fmt.Errorf("%w: Threads must be >= 1, got %d", ErrBadParams, p.Threads)
	}
	return nil
}

// ChunkBounds returns the [start, end) element range of chunk i when
// dataLen elements are partitioned into numChunks chunks. The first
// dataLen%numChunks chunks get one extra element, so chunk lengths differ
// by at most one and every chunk is contiguous (paper: thread t processes
// one chunk of length ~D/N).
func ChunkBounds(dataLen, numChunks, i int) (start, end int) {
	base := dataLen / numChunks
	extra := dataLen % numChunks
	if i < extra {
		start = i * (base + 1)
		end = start + base + 1
		return
	}
	start = extra*(base+1) + (i-extra)*base
	end = start + base
	return
}

// worstChunkBytes bounds the compressed size of a chunk of n elements with
// block size B: 4 outlier bytes plus, per block, 1 marker byte, sign bytes,
// and at most 4 bytes per value of planes+remainder.
func worstChunkBytes(n, B int) int {
	if n == 0 {
		return 4
	}
	nblocks := (n + B - 1) / B
	return 4 + nblocks*(1+(B+7)/8+8) + 4*n
}

// Compress compresses float32 data under the given parameters and returns
// a self-describing fZ-light container.
func Compress(data []float32, p Params) ([]byte, error) {
	return compressAny(data, p, Header{Version: 1})
}

// CompressLike compresses data into a container of h's layout (version,
// width, height) and parameters (error bound, block size, and its chunk
// count as Params.Threads); the element count is data's.
func CompressLike(data []float32, h Header) ([]byte, error) {
	return compressAny(data, Params{ErrorBound: h.ErrorBound, BlockSize: h.BlockSize, Threads: h.NumChunks}, h)
}

// compressAny compresses data into a fresh exact-sized container with
// layout's Version, Width and Height.
func compressAny(data []float32, p Params, layout Header) ([]byte, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	h := layout.shape(len(data), p)
	buf := bufpool.Bytes(h.Bound())
	n, err := compressHeader(buf, data, h)
	if err != nil {
		bufpool.PutBytes(buf)
		return nil, err
	}
	out := make([]byte, n)
	copy(out, buf[:n])
	bufpool.PutBytes(buf)
	return out, nil
}

// shape completes a layout header for n elements under p (defaults
// applied): Params.Threads chunks, clamped so no chunk is empty.
func (h Header) shape(n int, p Params) Header {
	h.ErrorBound, h.BlockSize, h.DataLen = p.ErrorBound, p.BlockSize, n
	h.NumChunks = max(1, min(p.Threads, n/h.unit()))
	return h
}

// Bound is the container size h can reach: the header plus the worst-case
// encoding of every chunk.
func (h Header) Bound() int {
	total := h.PayloadStart()
	for i := 0; i < h.NumChunks; i++ {
		s, e := h.ChunkRange(i)
		total += worstChunkBytes(e-s, h.BlockSize)
	}
	return total
}

// CompressBound returns the smallest dst length guaranteed to be
// sufficient for CompressInto of n elements under p (header plus the
// worst-case encoding of every chunk).
func CompressBound(n int, p Params) int {
	return Header{Version: 1}.shape(n, p.withDefaults()).Bound()
}

// CompressInto compresses float32 data into dst, which must hold at least
// CompressBound(len(data), p) bytes, and returns the container size. It is
// the reusable-buffer form of Compress, and its steady state performs zero
// heap allocations: the header is written inline, the per-call plan comes
// from a free list, chunks and segments encode directly into dst on the
// fanout runner's helpers, and the per-block scratch comes from bufpool.
// A chunk of at least 2·minSegment elements is encoded on up to GOMAXPROCS
// cores; the bytes are the same on any number (plan.go).
func CompressInto(dst []byte, data []float32, p Params) (int, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return 0, err
	}
	return compressHeader(dst, data, Header{Version: 1}.shape(len(data), p))
}

// compressHeader writes the container h describes for data into dst.
func compressHeader(dst []byte, data []float32, h Header) (int, error) {
	cores := 1
	if len(data) >= 2*minSegment { // no shorter chunk splits
		cores = fanout.Cores()
	}
	return compressSplit(dst, data, h, cores, minSegment)
}

// compressSplit is compressHeader on the given number of cores with
// segments of at least minLen elements: the plan's parts encode at their
// worst-case offsets, on as many goroutines as the plan has parts, and
// Assemble compacts them behind the header.
func compressSplit(dst []byte, data []float32, h Header, cores, minLen int) (int, error) {
	if need := h.Bound(); len(dst) < need {
		return 0, fmt.Errorf("%w: CompressInto needs %d bytes, got %d", ErrShortOutput, need, len(dst))
	}
	p := newPlan(h, dst, data, 1/(2*h.ErrorBound), false)
	p.planEncode(cores, minLen)
	p.run()
	n, err := h.Assemble(dst, p.parts)
	segments := len(p.parts)
	p.release()
	if err != nil {
		mCompressErrs.Inc()
		return 0, err
	}
	mCompressCalls.Inc()
	mCompressRaw.Add(int64(4 * len(data)))
	mCompressOut.Add(int64(n))
	mCompressOutlier.Add(int64(h.NumChunks)) // one raw outlier per chunk
	mCompressSegments.Add(int64(segments))
	return n, nil
}

// encodeChunk writes one part of h's layout into dst: a whole chunk, or for
// version 1 a block-aligned segment of one (see plan.go).
func encodeChunk(dst []byte, data []float32, h Header, recip float64, qprev int32, head bool) (int, error) {
	if h.Version == 1 {
		return compressChunk(dst, data, recip, h.BlockSize, qprev, head)
	}
	return compressChunkLorenzo(dst, data, h.Width, h.unit(), recip, h.BlockSize)
}

// compressChunk writes a run of a chunk's blocks into dst and returns the
// number of bytes written. This is the fused
// quantization+prediction+encoding loop of the paper: runs of full
// 32-element blocks go through the SIMD kernel where the CPU has one, a
// full block it declines through the branchless encodeBlock32 path; the
// chunk's first block (which hosts the chunk outlier) and tail/odd-sized
// blocks use the generic path. The run is a chunk's head (outlier slot
// first, qprev unused) or a later segment, whose first delta is taken
// against qprev, the quantised value in front of it.
func compressChunk(dst []byte, data []float32, recip float64, B int, qprev int32, head bool) (int, error) {
	o := 0
	if head {
		putInt32(dst, 0) // outlier placeholder
		o = 4
	}
	if len(data) == 0 {
		return o, nil
	}
	pbuf := bufpool.Int32s(B)
	mbuf := bufpool.Uint32s(B)
	defer bufpool.PutInt32s(pbuf)
	defer bufpool.PutUint32s(mbuf)
	var mscratch [32]uint32
	first := head
	var outlier int32

	for base := 0; base < len(data); {
		if !first && B == 32 {
			n, k, q := encodeRun32(dst[o:], data[base:], recip, qprev)
			o, base, qprev = o+n, base+32*k, q
			if base == len(data) {
				break
			}
		}
		end := min(base+B, len(data))
		blk := data[base:end]
		var used int
		var err error
		if len(blk) == 32 && !first {
			used, err = encodeBlock32(dst[o:], blk, recip, &qprev, &mscratch)
		} else {
			used, err = encodeBlockGeneric(dst[o:], blk, recip, &qprev, &first, &outlier, pbuf, mbuf)
		}
		if err != nil {
			return 0, err
		}
		o, base = o+used, end
	}
	if head {
		putInt32(dst, outlier)
	}
	return o, nil
}

// Decompress decodes a container produced by Compress (or by a
// homomorphic reduction of such containers) and returns the reconstructed
// values.
func Decompress(comp []byte) ([]float32, error) {
	h, err := ParseHeader(comp)
	if err != nil {
		return nil, err
	}
	out := make([]float32, h.DataLen)
	if err := DecompressInto(comp, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecompressInto decodes comp into dst, which must hold at least
// Header.DataLen elements. The steady state performs zero heap
// allocations: the header is parsed on the stack and each chunk decodes
// straight into dst, one core per chunk.
func DecompressInto(comp []byte, dst []float32) error {
	return DecompressAddInto(comp, nil, dst)
}

// DecompressAddInto decodes comp and adds it onto sums in the same pass:
// dst[i] = sums[i] + v[i] for the container's values v, one float32 add
// each — bit for bit DecompressInto into a scratch vector followed by that
// loop, without the scratch vector's write and read. This is C-Coll's
// decompress-operate step. sums is dst itself (an in-place
// accumulation) or disjoint from it, and both hold at least
// Header.DataLen elements; a nil sums makes this DecompressInto. On an
// error dst holds a partial result. A decoded v is never NaN (ParseHeader
// admits no infinite 2·eb), so no NaN payload depends on which operand of
// the add comes first.
func DecompressAddInto(comp []byte, sums, dst []float32) error {
	h, err := ParseHeader(comp)
	if err != nil {
		return err
	}
	if sums != nil {
		if len(sums) < h.DataLen {
			return ErrShortOutput
		}
		sums = sums[:h.DataLen]
	}
	if len(dst) < h.DataLen {
		return ErrShortOutput
	}
	p := newPlan(h, comp, dst, 2*h.ErrorBound, true)
	p.sums = sums
	p.planDecode()
	p.run()
	err = firstErr(p.parts)
	p.release()
	if err != nil {
		mDecompressErrs.Inc()
		return err
	}
	mDecompressCalls.Inc()
	mDecompressRaw.Add(int64(4 * h.DataLen))
	mDecompressIn.Add(int64(len(comp)))
	return nil
}

// decodeChunk decodes one chunk of h's layout into dst, adding it onto
// sums when sums is set.
func decodeChunk(src []byte, dst, sums []float32, h Header, eb2 float64) error {
	if h.Version == 1 {
		return decompressChunk(src, dst, sums, eb2, h.BlockSize)
	}
	return decompressChunkLorenzo(src, dst, sums, h.Width, h.unit(), eb2, h.BlockSize)
}

// decompressChunk is the one decoder of a version-1 chunk: runs of full
// 32-element blocks go through the SIMD kernel where the CPU has one, a
// full block it declines through decodeBlock32, and tail or odd-sized
// blocks through DecodeBlock. With sums set every path stores
// sums[i] + v instead of the decoded value v.
func decompressChunk(src []byte, dst, sums []float32, eb2 float64, B int) error {
	if len(src) < 4 {
		return ErrCorrupt
	}
	acc := getInt32(src)
	o := 4
	pbuf := bufpool.Int32s(B)
	mbuf := bufpool.Uint32s(B)
	defer bufpool.PutInt32s(pbuf)
	defer bufpool.PutUint32s(mbuf)
	var mscratch [32]uint32
	for base := 0; base < len(dst); {
		if B == 32 {
			var s []float32
			if sums != nil {
				s = sums[base:]
			}
			used, k, a := decodeRun32(src[o:], dst[base:], s, acc, eb2)
			o, base, acc = o+used, base+32*k, a
			if base == len(dst) {
				break
			}
		}
		end := min(base+B, len(dst))
		n := end - base
		var s []float32
		if sums != nil {
			s = sums[base:end]
		}
		if n == 32 {
			used, err := decodeBlock32(src[o:], dst[base:end], s, &acc, eb2, &mscratch)
			if err != nil {
				return err
			}
			o, base = o+used, end
			continue
		}
		used, err := DecodeBlock(src[o:], pbuf[:n], mbuf)
		if err != nil {
			return err
		}
		o += used
		blk := dst[base:end]
		if s == nil {
			for i := 0; i < n; i++ {
				acc += pbuf[i]
				blk[i] = float32(eb2 * float64(acc))
			}
		} else {
			for i := 0; i < n; i++ {
				acc += pbuf[i]
				blk[i] = s[i] + float32(eb2*float64(acc))
			}
		}
		base = end
	}
	if o != len(src) {
		return fmt.Errorf("%w: %d trailing bytes in chunk", ErrCorrupt, len(src)-o)
	}
	return nil
}

func putInt32(b []byte, v int32) {
	u := uint32(v)
	b[0] = byte(u)
	b[1] = byte(u >> 8)
	b[2] = byte(u >> 16)
	b[3] = byte(u >> 24)
}

func getInt32(b []byte) int32 {
	return int32(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
}
