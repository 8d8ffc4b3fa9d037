// Package szx implements a simplified SZx-style compressor, the
// "fastest CPU compressor" the hZCCL paper weighs (and rejects) as the
// basis for its pipeline in §III-B1: SZx's constant-block design collapses
// every block whose value range fits inside the error bound to a single
// constant, which is extremely fast and compresses smooth regions well but
// degrades reconstruction quality (staircase artifacts) and leaves
// non-smooth blocks essentially uncompressed.
//
// The format here keeps SZx's two decisive properties — midpoint-constant
// blocks and raw passthrough for everything else — so the paper's quality
// argument (Section III-B1, quantified in the szx-quality experiment) can
// be reproduced without the full leading-zero bitplane machinery.
package szx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"hzccl/internal/floatbytes"
)

// DefaultBlockSize matches SZx's 128-element blocks.
const DefaultBlockSize = 128

// maxBlockSize bounds the block size, and with it how many values one
// 5-byte constant block of a received stream can make the decoder allocate.
const maxBlockSize = math.MaxUint16

// Errors returned by the codec.
var (
	ErrBadParams = errors.New("szx: invalid parameters")
	ErrNonFinite = errors.New("szx: input contains NaN or Inf")
	ErrCorrupt   = errors.New("szx: corrupt or truncated stream")
	ErrBadMagic  = errors.New("szx: not an SZx stream")
)

// Params configures compression.
type Params struct {
	// ErrorBound is the absolute error bound. Must be > 0.
	ErrorBound float64
	// BlockSize is the constant-block length (default 128, at most 65,535).
	BlockSize int
}

const (
	magic       = "SZX1"
	fixedHeader = 24

	markerConstant = 0x01
	markerRaw      = 0x00
)

// CompressBound returns a dst size always sufficient for CompressInto of
// n values with block size B: each block costs at most a marker plus its
// raw float32 bytes (constant blocks cost 5 bytes, never more than a raw
// one-element block).
func CompressBound(n, blockSize int) int {
	B := blockSize
	if B == 0 {
		B = DefaultBlockSize
	}
	if B < 1 {
		return fixedHeader
	}
	nblocks := (n + B - 1) / B
	return fixedHeader + 4*n + 5*nblocks
}

// Compress compresses data with the constant-block scheme: a block whose
// (max−min)/2 fits within the bound stores only its midpoint; any other
// block is stored raw.
func Compress(data []float32, p Params) ([]byte, error) {
	out := make([]byte, CompressBound(len(data), p.BlockSize))
	n, err := CompressInto(out, data, p)
	if err != nil {
		return nil, err
	}
	return out[:n:n], nil
}

// CompressInto compresses data into dst (at least CompressBound bytes)
// and returns the stream size. It performs no heap allocations.
func CompressInto(dst []byte, data []float32, p Params) (int, error) {
	if !(p.ErrorBound > 0) || math.IsInf(p.ErrorBound, 0) {
		return 0, fmt.Errorf("%w: ErrorBound %v", ErrBadParams, p.ErrorBound)
	}
	B := p.BlockSize
	if B == 0 {
		B = DefaultBlockSize
	}
	if B < 1 || B > maxBlockSize {
		return 0, fmt.Errorf("%w: BlockSize %d", ErrBadParams, B)
	}
	if len(dst) < CompressBound(len(data), B) {
		return 0, fmt.Errorf("%w: dst too small", ErrBadParams)
	}
	copy(dst, magic)
	binary.LittleEndian.PutUint32(dst[4:], uint32(B))
	binary.LittleEndian.PutUint64(dst[8:], math.Float64bits(p.ErrorBound))
	binary.LittleEndian.PutUint64(dst[16:], uint64(len(data)))
	o := fixedHeader

	for base := 0; base < len(data); base += B {
		end := base + B
		if end > len(data) {
			end = len(data)
		}
		blk := data[base:end]
		mn, mx := blk[0], blk[0]
		for _, v := range blk {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return 0, ErrNonFinite
			}
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		if float64(mx)-float64(mn) <= 2*p.ErrorBound {
			mid := mn + (mx-mn)/2
			dst[o] = markerConstant
			binary.LittleEndian.PutUint32(dst[o+1:], math.Float32bits(mid))
			o += 5
		} else {
			dst[o] = markerRaw
			floatbytes.FromFloat32(dst[o+1:], blk)
			o += 1 + 4*len(blk)
		}
	}
	return o, nil
}

// Decompress reconstructs a compressed stream.
func Decompress(comp []byte) ([]float32, error) {
	n, err := DataLen(comp)
	if err != nil {
		return nil, err
	}
	out := make([]float32, n)
	if err := DecompressInto(out, comp); err != nil {
		return nil, err
	}
	return out, nil
}

// DataLen returns the number of float32 values a stream decodes to.
func DataLen(comp []byte) (int, error) {
	if len(comp) < fixedHeader {
		return 0, ErrCorrupt
	}
	if string(comp[:4]) != magic {
		return 0, ErrBadMagic
	}
	B := binary.LittleEndian.Uint32(comp[4:])
	eb := math.Float64frombits(binary.LittleEndian.Uint64(comp[8:]))
	rawLen := binary.LittleEndian.Uint64(comp[16:])
	if B < 1 || B > maxBlockSize || !(eb > 0) || math.IsInf(eb, 0) {
		return 0, ErrCorrupt
	}
	// Every block costs at least 5 bytes: a marker and a constant, or a
	// marker and at least one raw value.
	if rawLen > uint64(len(comp)-fixedHeader)/5*uint64(B) || rawLen > math.MaxInt {
		return 0, ErrCorrupt
	}
	return int(rawLen), nil
}

// DecompressInto reconstructs a stream into dst, which must hold exactly
// DataLen values. It performs no heap allocations.
func DecompressInto(dst []float32, comp []byte) error {
	n, err := DataLen(comp)
	if err != nil {
		return err
	}
	if len(dst) != n {
		return fmt.Errorf("%w: dst length %d, want %d", ErrBadParams, len(dst), n)
	}
	B := int(binary.LittleEndian.Uint32(comp[4:]))
	out := dst
	o := fixedHeader
	for base := 0; base < n; base += B {
		end := base + B
		if end > n {
			end = n
		}
		bn := end - base
		if o >= len(comp) {
			return ErrCorrupt
		}
		switch comp[o] {
		case markerConstant:
			if len(comp) < o+5 {
				return ErrCorrupt
			}
			v := math.Float32frombits(binary.LittleEndian.Uint32(comp[o+1:]))
			for i := base; i < end; i++ {
				out[i] = v
			}
			o += 5
		case markerRaw:
			if len(comp) < o+1+4*bn {
				return ErrCorrupt
			}
			floatbytes.ToFloat32(out[base:end], comp[o+1:o+1+4*bn])
			o += 1 + 4*bn
		default:
			return fmt.Errorf("%w: marker %d", ErrCorrupt, comp[o])
		}
	}
	if o != len(comp) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(comp)-o)
	}
	return nil
}

// ConstantFraction reports the fraction of constant blocks in a stream
// (the knob that determines both SZx's ratio and its artifact severity).
func ConstantFraction(comp []byte) (float64, error) {
	if len(comp) < fixedHeader || string(comp[:4]) != magic {
		return 0, ErrBadMagic
	}
	B := int(binary.LittleEndian.Uint32(comp[4:]))
	n := int(binary.LittleEndian.Uint64(comp[16:]))
	if B < 1 {
		return 0, ErrCorrupt
	}
	o := fixedHeader
	blocks, constant := 0, 0
	for base := 0; base < n; base += B {
		end := base + B
		if end > n {
			end = n
		}
		if o >= len(comp) {
			return 0, ErrCorrupt
		}
		blocks++
		if comp[o] == markerConstant {
			constant++
			o += 5
		} else {
			o += 1 + 4*(end-base)
		}
	}
	if blocks == 0 {
		return 0, nil
	}
	return float64(constant) / float64(blocks), nil
}
