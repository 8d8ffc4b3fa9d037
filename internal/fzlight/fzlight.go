// Package fzlight implements the fZ-light error-bounded lossy compressor
// for float32 scientific data, the CPU-optimized compressor the hZCCL paper
// builds its homomorphic pipeline on.
//
// Design (paper §III-B2, §III-B3):
//
//   - Multi-layer block partitioning: the input is split into one large
//     contiguous chunk per thread; each chunk is subdivided into small
//     blocks of BlockSize elements. Threads always walk contiguous memory.
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
	"sync"

	"hzccl/internal/bufpool"
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
	// differs from the original by at most eb. Must be > 0.
	ErrorBound float64
	// BlockSize is the small-block length. 0 selects DefaultBlockSize.
	// Multiples of 8 use the fast packing paths.
	BlockSize int
	// Threads is the number of chunks the input is partitioned into, each
	// compressed by its own goroutine. 0 and 1 select sequential operation
	// with a single chunk.
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
	if !(p.ErrorBound > 0) || math.IsInf(p.ErrorBound, 0) {
		return fmt.Errorf("%w: ErrorBound must be a positive finite number, got %v", ErrBadParams, p.ErrorBound)
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
	return compressAny(data, p, false)
}

// Compress64 compresses float64 data. The container records the source
// precision; decode it with Decompress64/DecompressInto64. Containers of
// either precision are mutually homomorphic only with their own kind (the
// geometry check includes the element type).
func Compress64(data []float64, p Params) ([]byte, error) {
	return compressAny(data, p, true)
}

func compressAny[T Float](data []T, p Params, wide bool) ([]byte, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	buf := bufpool.Bytes(CompressBound(len(data), p))
	n, err := compressIntoAny(buf, data, p, wide)
	if err != nil {
		bufpool.PutBytes(buf)
		return nil, err
	}
	out := make([]byte, n)
	copy(out, buf[:n])
	bufpool.PutBytes(buf)
	return out, nil
}

// compressChunkCount is the effective chunk count for n elements under p:
// Params.Threads clamped so no chunk is empty.
func compressChunkCount(n int, p Params) int {
	nc := p.Threads
	if nc > n {
		nc = n
	}
	if nc < 1 {
		nc = 1
	}
	return nc
}

// CompressBound returns the smallest dst length guaranteed to be
// sufficient for CompressInto of n elements under p (header plus the
// worst-case encoding of every chunk).
func CompressBound(n int, p Params) int {
	p = p.withDefaults()
	nc := compressChunkCount(n, p)
	total := headerBytes(nc)
	for i := 0; i < nc; i++ {
		s, e := ChunkBounds(n, nc, i)
		total += worstChunkBytes(e-s, p.BlockSize)
	}
	return total
}

// CompressInto compresses float32 data into dst, which must hold at least
// CompressBound(len(data), p) bytes, and returns the container size. It is
// the reusable-buffer form of Compress: with a single chunk (the
// collectives' configuration) the steady state performs zero heap
// allocations — the chunk encodes directly into dst behind an
// inline-written header, and the per-block scratch comes from bufpool.
func CompressInto(dst []byte, data []float32, p Params) (int, error) {
	return compressIntoAny(dst, data, p, false)
}

// CompressInto64 is CompressInto for float64 data (see Compress64).
func CompressInto64(dst []byte, data []float64, p Params) (int, error) {
	return compressIntoAny(dst, data, p, true)
}

func compressIntoAny[T Float](dst []byte, data []T, p Params, wide bool) (int, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return 0, err
	}
	if need := CompressBound(len(data), p); len(dst) < need {
		return 0, fmt.Errorf("%w: CompressInto needs %d bytes, got %d", ErrShortOutput, need, len(dst))
	}
	numChunks := compressChunkCount(len(data), p)
	hdr := headerBytes(numChunks)
	recip := 1 / (2 * p.ErrorBound)
	h := HeaderLite{
		ErrorBound: p.ErrorBound,
		BlockSize:  p.BlockSize,
		NumChunks:  numChunks,
		DataLen:    len(data),
		Float64:    wide,
	}

	var total int
	if numChunks == 1 {
		sp := mChunkEncodeNS.Start()
		n, err := compressChunk(dst[hdr:], data, recip, p.BlockSize)
		sp.End()
		if err != nil {
			mCompressErrs.Inc()
			return 0, err
		}
		MarshalHeaderLite(dst, h)
		PutChunkSize(dst, 0, n)
		total = n
	} else {
		// Every chunk encodes in parallel at its worst-case offset in dst;
		// the payloads are then compacted left so chunks abut (copy is a
		// memmove, safe for the overlapping forward shift).
		offs := make([]int, numChunks+1)
		sizes := make([]int, numChunks)
		errs := make([]error, numChunks)
		offs[0] = hdr
		for i := 0; i < numChunks; i++ {
			s, e := ChunkBounds(len(data), numChunks, i)
			offs[i+1] = offs[i] + worstChunkBytes(e-s, p.BlockSize)
		}
		// Capture the block size as a plain int: closing over p would move
		// the whole Params to the heap and cost the single-chunk fast path
		// its zero-allocation guarantee.
		B := p.BlockSize
		var wg sync.WaitGroup
		wg.Add(numChunks)
		for i := 0; i < numChunks; i++ {
			go func(i int) {
				defer wg.Done()
				s, e := ChunkBounds(len(data), numChunks, i)
				sp := mChunkEncodeNS.Start()
				sizes[i], errs[i] = compressChunk(dst[offs[i]:offs[i+1]], data[s:e], recip, B)
				sp.End()
			}(i)
		}
		wg.Wait()
		MarshalHeaderLite(dst, h)
		o := hdr
		for i := 0; i < numChunks; i++ {
			if errs[i] != nil {
				mCompressErrs.Inc()
				return 0, errs[i]
			}
			copy(dst[o:], dst[offs[i]:offs[i]+sizes[i]])
			PutChunkSize(dst, i, sizes[i])
			o += sizes[i]
		}
		total = o - hdr
	}
	mCompressCalls.Inc()
	mCompressRaw.Add(int64(len(data) * elemBytes(wide)))
	mCompressOut.Add(int64(hdr + total))
	mCompressOutlier.Add(int64(numChunks)) // one raw outlier per chunk
	return hdr + total, nil
}

// compressChunk writes one chunk (outlier + encoded blocks) into dst and
// returns the number of bytes written. This is the fused
// quantization+prediction+encoding loop of the paper: runs of full
// 32-element float32 blocks go through the SIMD kernel where the CPU has
// one, a full block it declines through the branchless encodeBlock32 path;
// the first block (which hosts the chunk outlier) and tail/odd-sized
// blocks use the generic path.
func compressChunk[T Float](dst []byte, data []T, recip float64, B int) (int, error) {
	putInt32(dst, 0) // outlier placeholder
	o := 4
	if len(data) == 0 {
		return o, nil
	}
	pbuf := bufpool.Int32s(B)
	mbuf := bufpool.Uint32s(B)
	defer bufpool.PutInt32s(pbuf)
	defer bufpool.PutUint32s(mbuf)
	var mscratch [32]uint32
	var qprev int32
	first := true
	var outlier int32
	f32, _ := any(data).([]float32) // nil for every other element type

	for base := 0; base < len(data); {
		if base > 0 && B == 32 && f32 != nil {
			n, k, q := encodeRun32(dst[o:], f32[base:], recip, qprev)
			o, base, qprev = o+n, base+32*k, q
			if base == len(data) {
				break
			}
		}
		end := min(base+B, len(data))
		blk := data[base:end]
		var used int
		var err error
		if len(blk) == 32 && base > 0 {
			used, err = encodeBlock32(dst[o:], blk, recip, &qprev, &mscratch)
		} else {
			used, err = encodeBlockGeneric(dst[o:], blk, recip, &qprev, &first, &outlier, pbuf, mbuf)
		}
		if err != nil {
			return 0, err
		}
		o, base = o+used, end
	}
	putInt32(dst, outlier)
	return o, nil
}

// Decompress decodes a float32 container produced by Compress (or by a
// homomorphic reduction of such containers) and returns the reconstructed
// values. Use Decompress64 for containers produced by Compress64.
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

// Decompress64 decodes a float64 container produced by Compress64.
func Decompress64(comp []byte) ([]float64, error) {
	h, err := ParseHeader(comp)
	if err != nil {
		return nil, err
	}
	out := make([]float64, h.DataLen)
	if err := DecompressInto64(comp, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ErrWrongPrecision is returned when a container's source precision does
// not match the requested decode type.
var ErrWrongPrecision = errors.New("fzlight: container precision does not match decode type")

// DecompressInto decodes comp into dst, which must hold at least
// Header.DataLen elements. For 1D containers with a single chunk (the
// collectives' configuration) the steady state performs zero heap
// allocations: the header is parsed on the stack and the chunk decodes
// straight into dst.
func DecompressInto(comp []byte, dst []float32) error {
	h, err := ParseHeaderLite(comp)
	if errors.Is(err, ErrBadVersion) {
		return decompressLayout(comp, dst)
	}
	if err != nil {
		return err
	}
	if h.Float64 {
		return ErrWrongPrecision
	}
	return decompressIntoAny(comp, h, dst)
}

// decompressLayout decodes the 2D/3D Lorenzo containers, whose headers
// the lite parser does not cover (and reports any other version).
func decompressLayout(comp []byte, dst []float32) error {
	h, err := ParseHeader(comp)
	if err != nil {
		return err
	}
	if len(dst) < h.DataLen {
		return ErrShortOutput
	}
	if h.Version == 3 {
		return decompress3D(comp, h, dst[:h.DataLen])
	}
	return decompress2D(comp, h, dst[:h.DataLen])
}

// DecompressInto64 decodes a float64 container into dst.
func DecompressInto64(comp []byte, dst []float64) error {
	h, err := ParseHeaderLite(comp)
	if errors.Is(err, ErrBadVersion) {
		if _, err := ParseHeader(comp); err != nil {
			return err
		}
		return ErrWrongPrecision // the 2D/3D layouts are float32-only
	}
	if err != nil {
		return err
	}
	if !h.Float64 {
		return ErrWrongPrecision
	}
	return decompressIntoAny(comp, h, dst)
}

func decompressIntoAny[T Float](comp []byte, h HeaderLite, dst []T) error {
	if len(dst) < h.DataLen {
		return ErrShortOutput
	}
	eb2 := 2 * h.ErrorBound
	var err error
	if h.NumChunks == 1 {
		// No closure, no per-chunk tables: this path must not allocate.
		sp := mChunkDecodeNS.Start()
		err = decompressChunk(comp[h.PayloadStart():], dst[:h.DataLen], eb2, h.BlockSize)
		sp.End()
	} else {
		errs := make([]error, h.NumChunks)
		var wg sync.WaitGroup
		wg.Add(h.NumChunks)
		o := h.PayloadStart()
		for i := 0; i < h.NumChunks; i++ {
			src := comp[o : o+h.ChunkSize(comp, i)]
			o += len(src)
			go func(i int) {
				defer wg.Done()
				start, end := ChunkBounds(h.DataLen, h.NumChunks, i)
				sp := mChunkDecodeNS.Start()
				errs[i] = decompressChunk(src, dst[start:end], eb2, h.BlockSize)
				sp.End()
			}(i)
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				err = e
				break
			}
		}
	}
	if err != nil {
		mDecompressErrs.Inc()
		return err
	}
	mDecompressCalls.Inc()
	mDecompressRaw.Add(int64(h.DataLen * elemBytes(h.Float64)))
	mDecompressIn.Add(int64(len(comp)))
	return nil
}

func decompressChunk[T Float](src []byte, dst []T, eb2 float64, B int) error {
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
	out32, _ := any(dst).([]float32) // nil for every other element type
	for base := 0; base < len(dst); {
		if B == 32 && out32 != nil {
			used, k, a := decodeRun32(src[o:], out32[base:], acc, eb2)
			o, base, acc = o+used, base+32*k, a
			if base == len(dst) {
				break
			}
		}
		end := min(base+B, len(dst))
		n := end - base
		if n == 32 {
			used, err := decodeBlock32(src[o:], dst[base:end], &acc, eb2, &mscratch)
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
		for i := 0; i < n; i++ {
			acc += pbuf[i]
			blk[i] = T(eb2 * float64(acc))
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
