package fzlight

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Container layout (all little-endian). One header serves all three
// layouts; they differ only in the dimension tail and in the unit a chunk
// partitions:
//
//	offset 0  : magic "FZL1"
//	offset 4  : version: 1 = 1D delta, 2 = 2D Lorenzo, 3 = 3D Lorenzo
//	offset 5  : flags, reserved: always 0
//	offset 6  : block size (uint16)
//	offset 8  : absolute error bound (float64)
//	offset 16 : number of chunks (uint32)
//	offset 20 : element count (uint64)
//	offset 28 : dimension tail, version−1 uint32s: v2 width; v3 width, height
//	then      : compressed byte size of each chunk (numChunks × uint32)
//	then      : chunk payloads, concatenated
//
// Chunks partition elements (v1), rows of width elements (v2) or planes of
// width×height elements (v3). A v2 chunk is a v3 chunk with height 1.
const (
	magic       = "FZL1"
	fixedHeader = 28 // the prefix every version shares
)

// Header describes a compressed container. It is a plain value, parsed
// without allocating, and two headers compare equal exactly when their
// containers are homomorphically compatible, so `ha == hb` is the geometry
// check. Chunk sizes stay in the container; read them with ChunkSize.
type Header struct {
	ErrorBound float64
	BlockSize  int
	NumChunks  int
	DataLen    int
	// Version is the container format version: 1 = 1D delta, 2 = 2D
	// Lorenzo, 3 = 3D Lorenzo.
	Version int
	// Width is the row length of a 2D/3D container; 0 for 1D.
	Width int
	// Height is the plane height of a 3D container; 0 otherwise.
	Height int
}

// tableStart is the offset of the chunk-size table: the prefix plus the
// dimension tail.
func (h Header) tableStart() int { return fixedHeader + 4*(h.Version-1) }

// PayloadStart returns the offset of the first chunk payload.
func (h Header) PayloadStart() int { return h.tableStart() + 4*h.NumChunks }

// unit is the number of elements in one chunk-partitioning unit: an
// element, a row or a plane.
func (h Header) unit() int {
	switch h.Version {
	case 3:
		return h.Width * h.Height
	case 2:
		return h.Width
	}
	return 1
}

// ChunkRange returns the [start, end) element range of chunk i: the units
// are split as ChunkBounds splits elements.
func (h Header) ChunkRange(i int) (start, end int) {
	u := h.unit()
	s, e := ChunkBounds(h.DataLen/u, h.NumChunks, i)
	return s * u, e * u
}

// ChunkSize reads chunk i's payload size from the container's size table
// (bounds were validated by ParseHeader).
func (h Header) ChunkSize(comp []byte, i int) int {
	return int(binary.LittleEndian.Uint32(comp[h.tableStart()+4*i:]))
}

// PutChunkSize records chunk i's payload size in dst's size table.
func (h Header) PutChunkSize(dst []byte, i, size int) {
	binary.LittleEndian.PutUint32(dst[h.tableStart()+4*i:], uint32(size))
}

// Marshal writes the header fields into dst, which must hold PayloadStart()
// bytes; the chunk-size table is filled with PutChunkSize as payload sizes
// become known.
func (h Header) Marshal(dst []byte) {
	copy(dst, magic)
	dst[4] = byte(h.Version)
	dst[5] = 0 // flags
	binary.LittleEndian.PutUint16(dst[6:], uint16(h.BlockSize))
	binary.LittleEndian.PutUint64(dst[8:], math.Float64bits(h.ErrorBound))
	binary.LittleEndian.PutUint32(dst[16:], uint32(h.NumChunks))
	binary.LittleEndian.PutUint64(dst[20:], uint64(h.DataLen))
	if h.Version >= 2 {
		binary.LittleEndian.PutUint32(dst[28:], uint32(h.Width))
	}
	if h.Version == 3 {
		binary.LittleEndian.PutUint32(dst[32:], uint32(h.Height))
	}
}

// ParseHeader validates a container header — including the full chunk-size
// table, which must exactly cover the payload — without allocating.
func ParseHeader(comp []byte) (Header, error) {
	var h Header
	if len(comp) < fixedHeader {
		return h, ErrCorrupt
	}
	if string(comp[:4]) != magic {
		return h, ErrBadMagic
	}
	if comp[4] < 1 || comp[4] > 3 {
		return h, fmt.Errorf("%w: version %d", ErrBadVersion, comp[4])
	}
	// No flag is defined: a container with one set (such as the float64
	// bit of earlier builds) is of a format this decoder does not read.
	if comp[5] != 0 {
		return h, fmt.Errorf("%w: flags 0x%02x", ErrBadVersion, comp[5])
	}
	h.Version = int(comp[4])
	table := h.tableStart()
	if len(comp) < table {
		return Header{}, ErrCorrupt
	}
	h.BlockSize = int(binary.LittleEndian.Uint16(comp[6:]))
	h.ErrorBound = math.Float64frombits(binary.LittleEndian.Uint64(comp[8:]))
	h.NumChunks = int(binary.LittleEndian.Uint32(comp[16:]))
	rawLen := binary.LittleEndian.Uint64(comp[20:])
	// The decoder scales by 2·eb: an infinite one would turn a zero
	// quantum into NaN, a value no encoder writes.
	if h.BlockSize < 1 || h.NumChunks < 1 || !(h.ErrorBound > 0) || math.IsInf(2*h.ErrorBound, 1) {
		return Header{}, ErrCorrupt
	}
	// Containers arrive from the network: every size field is untrusted.
	// Each chunk costs at least 4 outlier bytes and each block at least one
	// marker byte, so the payload bounds both the chunk count and the
	// element count; reject anything a well-formed container cannot hold
	// before any allocation is sized from it.
	payload := uint64(len(comp) - table)
	if uint64(h.NumChunks) > payload/8 || rawLen > payload*uint64(h.BlockSize) || rawLen > math.MaxInt {
		return Header{}, ErrCorrupt
	}
	// The unit a chunk partitions (1, width or width × height) is computed
	// in uint64, where two uint32s cannot overflow, so a hostile plane cannot
	// wrap int on 32-bit builds: it must fit an int and divide the element
	// count.
	var width, height uint64
	unit := uint64(1)
	if h.Version >= 2 {
		width = uint64(binary.LittleEndian.Uint32(comp[28:]))
		unit = width
	}
	if h.Version == 3 {
		height = uint64(binary.LittleEndian.Uint32(comp[32:]))
		unit *= height
	}
	if unit == 0 || unit > math.MaxInt || rawLen%unit != 0 {
		return Header{}, ErrCorrupt
	}
	h.Width, h.Height = int(width), int(height)
	h.DataLen = int(rawLen)
	if units := int(rawLen / unit); units > 0 && h.NumChunks > units {
		return Header{}, ErrCorrupt
	}
	end := h.PayloadStart() // inside comp: at most 4 of every 8 payload bytes
	for i := 0; i < h.NumChunks; i++ {
		s := binary.LittleEndian.Uint32(comp[table+4*i:])
		if uint64(s) > uint64(len(comp)-end) {
			return Header{}, ErrCorrupt
		}
		end += int(s)
	}
	if end != len(comp) {
		return Header{}, fmt.Errorf("%w: container size %d, chunks end at %d", ErrCorrupt, len(comp), end)
	}
	return h, nil
}

// StreamStats summarizes the block structure of a compressed stream. The
// constant-block fraction predicts which homomorphic pipelines hZ-dynamic
// will select (paper Table V).
type StreamStats struct {
	Blocks         int
	ConstantBlocks int
	CodeLenHist    [33]int
	PayloadBytes   int
}

// ConstantFraction returns the fraction of blocks with code length zero.
func (s StreamStats) ConstantFraction() float64 {
	if s.Blocks == 0 {
		return 0
	}
	return float64(s.ConstantBlocks) / float64(s.Blocks)
}

// Stats walks a compressed stream and returns its block statistics.
func Stats(comp []byte) (StreamStats, error) {
	var st StreamStats
	h, err := ParseHeader(comp)
	if err != nil {
		return st, err
	}
	off := h.PayloadStart()
	for i := 0; i < h.NumChunks; i++ {
		start, end := h.ChunkRange(i)
		src := comp[off : off+h.ChunkSize(comp, i)]
		off += len(src)
		if len(src) < 4 {
			return st, ErrCorrupt
		}
		o := 4
		for base := start; base < end; base += h.BlockSize {
			n := min(h.BlockSize, end-base)
			size, err := BlockBytes(src[o:], n)
			if err != nil {
				return st, err
			}
			c := int(src[o])
			st.Blocks++
			st.CodeLenHist[c]++
			if c == 0 {
				st.ConstantBlocks++
			}
			st.PayloadBytes += size
			o += size
		}
	}
	return st, nil
}
