package fzlight

import "hzccl/internal/fanout"

// Every container this package writes or reads is one plan of parts run on
// the fanout runner: a part is a chunk, or a segment of a chunk, with its
// own region of the container buffer.
//
// Chunks are the container's format (Params.Threads of them, each with its
// own outlier; the bytes depend on the count). Segments are how an encode
// uses the cores and do not show in the bytes: a version-1 chunk of
// 32-element blocks is encoded as up to GOMAXPROCS block-aligned segments,
// and segment k > 0 starts from the quantised value of the element in front
// of it, which is exactly the state the serial encoder carries into that
// block. Every block is therefore encoded from the same (block, qprev,
// recip) as on one core, and the container is byte-identical whatever the
// number of cores. Decoding stays one task per chunk: the format records no
// accumulator at a segment boundary (DESIGN §11.3).

// minSegment is the fewest elements a segment of its own is split off
// for: below it the hand-off to a helper and the compaction copy cost more
// than the second core saves (DESIGN §11.3 has the measurement).
const minSegment = 1 << 17

// Part is one task of a container being written or read: elements
// [Start, End) of chunk Chunk and the region [Off, Limit) of the container
// buffer. A writing task records the bytes it wrote at Off in Size; any
// task records its error in Err.
type Part struct {
	Chunk, Start, End int
	Off, Limit, Size  int
	Err               error
}

// Assemble finishes a container whose parts have been written, each at its
// own Off in dst: it returns the first part's error, in container order,
// if any part failed; otherwise it writes h, moves the payloads left so
// they abut behind the header — a part that already sits there is not
// copied — records each chunk's total in the size table and returns the
// container size. Parts must be in container order, each at or beyond the
// position it moves to.
func (h Header) Assemble(dst []byte, parts []Part) (int, error) {
	if err := firstErr(parts); err != nil {
		return 0, err
	}
	h.Marshal(dst)
	o := h.PayloadStart()
	start := o
	for i, p := range parts {
		if p.Off != o {
			copy(dst[o:], dst[p.Off:p.Off+p.Size])
		}
		o += p.Size
		if i+1 == len(parts) || parts[i+1].Chunk != p.Chunk {
			h.PutChunkSize(dst, p.Chunk, o-start)
			start = o
		}
	}
	return o, nil
}

// firstErr is the error of the first failed part, in container order: for
// an encode, the error the serial encoder meets first.
func firstErr(parts []Part) error {
	for i := range parts {
		if parts[i].Err != nil {
			return parts[i].Err
		}
	}
	return nil
}

// plan is one compress or decompress call: the container buf, the values
// vals, and the parts that cover both. A decode with sums set adds the
// container onto sums (DecompressAddInto).
type plan struct {
	h      Header
	buf    []byte
	vals   []float32
	sums   []float32
	scale  float64 // recip = 1/(2·eb) to encode, 2·eb to decode
	decode bool
	parts  []Part
}

// plans is the free list the steady state takes its plans from.
var plans fanout.Free[plan]

func newPlan(h Header, buf []byte, vals []float32, scale float64, decode bool) *plan {
	p := plans.Get()
	if p == nil {
		p = new(plan)
	}
	p.h, p.buf, p.vals, p.scale, p.decode = h, buf, vals, scale, decode
	p.parts = p.parts[:0]
	return p
}

func (p *plan) release() {
	p.buf, p.vals, p.sums = nil, nil, nil
	plans.Put(p)
}

// planEncode lays out the parts of an encode of h for the given number of
// cores: every chunk, split where it is a version-1 chunk of 32-element
// blocks into up to cores/NumChunks block-aligned segments of at least
// minLen elements, each part's region its worst case (a segment behind
// the first has no outlier).
func (p *plan) planEncode(cores, minLen int) {
	h, B := p.h, p.h.BlockSize
	split := 1
	if h.Version == 1 && B == 32 {
		split = max(1, cores/h.NumChunks)
	}
	off := h.PayloadStart()
	for c := 0; c < h.NumChunks; c++ {
		s, e := h.ChunkRange(c)
		blocks := (e - s + B - 1) / B
		k := max(1, min(split, blocks, (e-s)/minLen))
		for j := 0; j < k; j++ {
			ps, pe := s+B*(blocks*j/k), min(e, s+B*(blocks*(j+1)/k))
			size := worstChunkBytes(pe-ps, B)
			if j > 0 {
				size -= 4
			}
			p.parts = append(p.parts, Part{Chunk: c, Start: ps, End: pe, Off: off, Limit: off + size})
			off += size
		}
	}
}

// planDecode lays out the parts of a decode of the container h heads: one
// per chunk.
func (p *plan) planDecode() {
	off := p.h.PayloadStart()
	for c := 0; c < p.h.NumChunks; c++ {
		s, e := p.h.ChunkRange(c)
		size := p.h.ChunkSize(p.buf, c)
		p.parts = append(p.parts, Part{Chunk: c, Start: s, End: e, Off: off, Limit: off + size})
		off += size
	}
}

// Do runs part i.
func (p *plan) Do(i int) {
	pt := &p.parts[i]
	if p.decode {
		var sums []float32
		if p.sums != nil {
			sums = p.sums[pt.Start:pt.End]
		}
		sp := mChunkDecodeNS.Start()
		pt.Err = decodeChunk(p.buf[pt.Off:pt.Limit], p.vals[pt.Start:pt.End], sums, p.h, p.scale)
		sp.End()
		return
	}
	head := i == 0 || p.parts[i-1].Chunk != pt.Chunk
	var qprev int32
	if !head {
		// The previous segment meets this value's error, if it has one,
		// and that is the error the encode returns.
		if qprev, pt.Err = quantise(float64(p.vals[pt.Start-1]), p.scale); pt.Err != nil {
			return
		}
	}
	sp := mChunkEncodeNS.Start()
	pt.Size, pt.Err = encodeChunk(p.buf[pt.Off:pt.Limit], p.vals[pt.Start:pt.End], p.h, p.scale, qprev, head)
	sp.End()
}

// run runs every part on the fanout runner.
func (p *plan) run() { fanout.Run(len(p.parts), p) }
