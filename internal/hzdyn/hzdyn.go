// Package hzdyn implements hZ-dynamic, the dynamic homomorphic compressor
// of the hZCCL paper (§III-B4): reduction operations applied *directly* to
// fZ-light compressed streams, with a run-time heuristic that selects the
// cheapest of four per-block pipelines:
//
//	① both blocks constant (code length 0)      → emit a single 0 byte
//	② left constant, right non-constant         → copy right block verbatim
//	③ left non-constant, right constant         → copy left block verbatim
//	④ both non-constant                         → inverse fixed-length
//	   encode both, add the prediction integers, fixed-length encode the sum
//
// Correctness rests on the linearity of the fZ-light transform: quantized
// values, chunk outliers and in-chunk deltas are all linear in the input,
// so adding them block-wise is exactly equivalent to decompressing, adding
// and recompressing — minus the quantization step, which means hZ-dynamic
// introduces no error beyond the one already present in its inputs.
package hzdyn

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"hzccl/internal/bufpool"
	"hzccl/internal/fzlight"
	"hzccl/internal/telemetry"
)

// Telemetry for the homomorphic reducer. Pipeline counts are tallied
// locally per chunk (plain int64 in Stats) and folded into the global
// histogram once per Add call, so the per-block hot loop carries no
// atomic operations. The histogram buckets are the paper's case numbers
// ①–④: bucket le=1 counts both-constant pairs, le=2 left-constant,
// le=3 right-constant, le=4 both-encoded.
var (
	mAddCalls     = telemetry.C("hzdyn.add.calls")
	mBlocks       = telemetry.C("hzdyn.blocks")
	mOverflow     = telemetry.C("hzdyn.overflow_fallbacks")
	mPipelineHist = telemetry.H("hzdyn.pipeline_case", telemetry.LinearBuckets(1, 1, 4))
)

// Errors returned by the reducer.
var (
	// ErrGeometry means the two streams cannot be reduced homomorphically
	// because they differ in error bound, block size, chunk count or length.
	ErrGeometry = errors.New("hzdyn: compressed streams have different geometry")
	// ErrOverflow means a summed quantized value no longer fits in 31 bits.
	// The caller must reduce precision (larger error bound) or rescale.
	ErrOverflow = errors.New("hzdyn: quantized sum overflows int32")
)

// Pipeline identifies which of the four homomorphic pipelines handled a
// block pair.
type Pipeline int

// Pipeline constants mirror the paper's numbering ①–④.
const (
	PipelineBothConstant  Pipeline = 1
	PipelineLeftConstant  Pipeline = 2
	PipelineRightConstant Pipeline = 3
	PipelineBothEncoded   Pipeline = 4
)

// Stats records how many block pairs each pipeline processed. Pipeline
// selection percentages (paper Table V) are derived from it.
type Stats struct {
	Pipeline [5]int64 // indexed 1..4; index 0 unused
	Blocks   int64
}

// Fraction returns the fraction of blocks handled by pipeline p.
func (s Stats) Fraction(p Pipeline) float64 {
	if s.Blocks == 0 {
		return 0
	}
	return float64(s.Pipeline[p]) / float64(s.Blocks)
}

func (s *Stats) add(o Stats) { s.Accumulate(o) }

// Accumulate folds another Stats value into s (for callers aggregating
// statistics across many reductions).
func (s *Stats) Accumulate(o Stats) {
	for i := range s.Pipeline {
		s.Pipeline[i] += o.Pipeline[i]
	}
	s.Blocks += o.Blocks
}

// AddBound returns a dst size always sufficient for AddInto over
// containers of lenA and lenB bytes: a summed block's code length is at
// most max(code_a, code_b)+1, so every output block fits within its two
// input blocks' combined bytes, and the output header matches the inputs'.
func AddBound(lenA, lenB int) int { return lenA + lenB }

// Add homomorphically sums two fZ-light streams and returns the compressed
// sum plus pipeline-selection statistics. Both streams must have been
// produced with identical Params over equal-length inputs (or be outputs of
// previous Add calls with that property).
func Add(a, b []byte) ([]byte, Stats, error) {
	return add(a, b, true)
}

// StaticAdd is the static homomorphic baseline (paper's "static pipeline",
// HoSZp-style): every block pair — constant or not — is decoded, summed and
// re-encoded through pipeline ④. Results are byte-identical to Add; only
// the work differs. It exists for the dynamic-vs-static ablation.
func StaticAdd(a, b []byte) ([]byte, error) {
	out, _, err := add(a, b, false)
	return out, err
}

// add is the allocating wrapper: it reduces into a pooled bound-sized
// buffer and copies the exact-sized result out.
func add(a, b []byte, dynamic bool) ([]byte, Stats, error) {
	buf := bufpool.Bytes(AddBound(len(a), len(b)))
	n, st, err := addInto(buf, a, b, dynamic)
	if err != nil {
		bufpool.PutBytes(buf)
		return nil, st, err
	}
	out := make([]byte, n)
	copy(out, buf[:n])
	bufpool.PutBytes(buf)
	return out, st, nil
}

// AddInto homomorphically sums streams a and b into dst, which must hold
// at least AddBound(len(a), len(b)) bytes, and returns the container size
// plus pipeline-selection statistics. It is the reusable-buffer form of
// Add: for 1D containers the steady state performs zero heap allocations —
// header parsing is stack-only (fzlight.HeaderLite) and all per-chunk
// scratch comes from bufpool.
func AddInto(dst, a, b []byte) (int, Stats, error) {
	return addInto(dst, a, b, true)
}

func addInto(dst, a, b []byte, dynamic bool) (int, Stats, error) {
	var stats Stats
	ha, err := fzlight.ParseHeaderLite(a)
	if err != nil {
		if errors.Is(err, fzlight.ErrBadVersion) {
			// 2D/3D Lorenzo container: take the pointer-header path.
			return addIntoSlow(dst, a, b, dynamic)
		}
		return 0, stats, fmt.Errorf("hzdyn: left operand: %w", err)
	}
	hb, err := fzlight.ParseHeaderLite(b)
	if err != nil {
		return 0, stats, fmt.Errorf("hzdyn: right operand: %w", err)
	}
	if ha != hb {
		return 0, stats, ErrGeometry
	}
	if len(dst) < AddBound(len(a), len(b)) {
		return 0, stats, fzlight.ErrShortOutput
	}
	hdr := ha.PayloadStart()
	nc := ha.NumChunks

	if nc == 1 {
		n, st, err := addChunk(dst[hdr:], a[hdr:], b[hdr:], ha.DataLen, ha.BlockSize, dynamic)
		if err != nil {
			if errors.Is(err, ErrOverflow) {
				mOverflow.Inc()
			}
			return 0, stats, err
		}
		stats.add(st)
		fzlight.MarshalHeaderLite(dst, ha)
		fzlight.PutChunkSize(dst, 0, n)
		recordAdd(stats)
		return hdr + n, stats, nil
	}

	// Multi-chunk: each pair reduces in parallel at its worst-case offset
	// (the two input chunks' combined size), then the payloads compact
	// left. The small index slices below are per-call, not per-block; the
	// zero-allocation guarantee covers the single-chunk configuration the
	// collectives use.
	offs := make([]int, nc+1)
	offsA := make([]int, nc+1)
	offsB := make([]int, nc+1)
	offs[0], offsA[0], offsB[0] = hdr, hdr, hdr
	for i := 0; i < nc; i++ {
		sa, sb := ha.ChunkSize(a, i), hb.ChunkSize(b, i)
		offsA[i+1] = offsA[i] + sa
		offsB[i+1] = offsB[i] + sb
		offs[i+1] = offs[i] + sa + sb
	}
	sizes := make([]int, nc)
	chunkStats := make([]Stats, nc)
	errs := make([]error, nc)
	var wg sync.WaitGroup
	wg.Add(nc)
	for i := 0; i < nc; i++ {
		go func(i int) {
			defer wg.Done()
			s, e := fzlight.ChunkBounds(ha.DataLen, nc, i)
			sizes[i], chunkStats[i], errs[i] = addChunk(dst[offs[i]:offs[i+1]],
				a[offsA[i]:offsA[i+1]], b[offsB[i]:offsB[i+1]], e-s, ha.BlockSize, dynamic)
		}(i)
	}
	wg.Wait()
	fzlight.MarshalHeaderLite(dst, ha)
	o := hdr
	for i := 0; i < nc; i++ {
		if errs[i] != nil {
			if errors.Is(errs[i], ErrOverflow) {
				mOverflow.Inc()
			}
			return 0, stats, errs[i]
		}
		copy(dst[o:], dst[offs[i]:offs[i]+sizes[i]])
		fzlight.PutChunkSize(dst, i, sizes[i])
		o += sizes[i]
		stats.add(chunkStats[i])
	}
	recordAdd(stats)
	return o, stats, nil
}

// addIntoSlow reduces 2D/3D containers (whose chunk geometry needs the
// full header) through the allocating chunk path, then copies into dst.
func addIntoSlow(dst, a, b []byte, dynamic bool) (int, Stats, error) {
	var stats Stats
	ha, offsA, err := fzlight.ChunkOffsets(a)
	if err != nil {
		return 0, stats, fmt.Errorf("hzdyn: left operand: %w", err)
	}
	hb, offsB, err := fzlight.ChunkOffsets(b)
	if err != nil {
		return 0, stats, fmt.Errorf("hzdyn: right operand: %w", err)
	}
	if !fzlight.SameGeometry(ha, hb) {
		return 0, stats, ErrGeometry
	}

	nc := ha.NumChunks
	chunks := make([][]byte, nc)
	bufs := make([][]byte, nc)
	chunkStats := make([]Stats, nc)
	errs := make([]error, nc)
	work := func(i int) {
		start, end := fzlight.ChunkElemRange(ha, i)
		ca := a[offsA[i]:offsA[i+1]]
		cb := b[offsB[i]:offsB[i+1]]
		buf := bufpool.Bytes(len(ca) + len(cb))
		bufs[i] = buf
		n, st, err := addChunk(buf, ca, cb, end-start, ha.BlockSize, dynamic)
		chunks[i] = buf[:n]
		chunkStats[i] = st
		errs[i] = err
	}
	if nc == 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(nc)
		for i := 0; i < nc; i++ {
			go func(i int) { defer wg.Done(); work(i) }(i)
		}
		wg.Wait()
	}

	out := fzlight.AssembleLike(ha, chunks)
	for i := range errs {
		if errs[i] != nil {
			if errors.Is(errs[i], ErrOverflow) {
				mOverflow.Inc()
			}
			for _, buf := range bufs {
				bufpool.PutBytes(buf)
			}
			return 0, stats, errs[i]
		}
		stats.add(chunkStats[i])
	}
	for _, buf := range bufs {
		bufpool.PutBytes(buf)
	}
	if len(dst) < len(out) {
		return 0, stats, fzlight.ErrShortOutput
	}
	recordAdd(stats)
	return copy(dst, out), stats, nil
}

// recordAdd folds one reduction's statistics into the package telemetry.
func recordAdd(stats Stats) {
	mAddCalls.Inc()
	mBlocks.Add(stats.Blocks)
	for p := PipelineBothConstant; p <= PipelineBothEncoded; p++ {
		mPipelineHist.ObserveN(int64(p), stats.Pipeline[p])
	}
}

func worstChunkBytes(n, B int) int {
	if n == 0 {
		return 4
	}
	nblocks := (n + B - 1) / B
	return 4 + nblocks*(1+(B+7)/8+8) + 4*n
}

func addChunk(dst, a, b []byte, n, B int, dynamic bool) (int, Stats, error) {
	var st Stats
	if len(a) < 4 || len(b) < 4 {
		return 0, st, fzlight.ErrCorrupt
	}
	// Outliers (first quantized value of the chunk) add directly.
	oa64 := int64(getInt32(a)) + int64(getInt32(b))
	if oa64 > math.MaxInt32 || oa64 < math.MinInt32 {
		return 0, st, ErrOverflow
	}
	putInt32(dst, int32(oa64))
	o, oa, ob, st, err := addBlockRange(dst[4:], a[4:], b[4:], n, B, dynamic)
	if err != nil {
		return 0, st, err
	}
	if 4+oa != len(a) || 4+ob != len(b) {
		return 0, st, fzlight.ErrCorrupt
	}
	return 4 + o, st, nil
}

// addBlockRange reduces a contiguous run of block pairs (no chunk outlier
// prefix): dst receives the packed output blocks, and the returned offsets
// say how many bytes were written and consumed.
func addBlockRange(dst, a, b []byte, n, B int, dynamic bool) (int, int, int, Stats, error) {
	var st Stats
	pa := bufpool.Int32s(B)
	pb := bufpool.Int32s(B)
	scratch := bufpool.Uint32s(B)
	defer bufpool.PutInt32s(pa)
	defer bufpool.PutInt32s(pb)
	defer bufpool.PutUint32s(scratch)

	o, oa, ob := 0, 0, 0
	for base := 0; base < n; base += B {
		if B == 32 {
			// The SIMD kernel takes every full pair it can, through all four
			// pipelines; the switch below takes the one it stops at.
			w, ua, ub, k := fzlight.SumRun32(dst[o:], a[oa:], b[ob:], (n-base)/32, dynamic, &st.Pipeline)
			o, oa, ob, base = o+w, oa+ua, ob+ub, base+32*k
			if base == n {
				break
			}
		}
		bn := min(B, n-base)
		if oa >= len(a) || ob >= len(b) {
			return 0, 0, 0, st, fzlight.ErrCorrupt
		}
		ca, cb := a[oa], b[ob]
		switch {
		case dynamic && ca == 0 && cb == 0:
			// Pipeline ①: sum of two all-zero delta blocks is all-zero.
			dst[o] = 0
			o++
			oa++
			ob++
			st.Pipeline[PipelineBothConstant]++
		case dynamic && ca == 0:
			// Pipeline ②: left deltas are all zero; the sum is the right
			// block, copied byte-for-byte (marker, signs, planes, residual).
			sb, err := fzlight.BlockBytes(b[ob:], bn)
			if err != nil {
				return 0, 0, 0, st, err
			}
			o += copy(dst[o:], b[ob:ob+sb])
			oa++
			ob += sb
			st.Pipeline[PipelineLeftConstant]++
		case dynamic && cb == 0:
			// Pipeline ③: mirror of ②.
			sa, err := fzlight.BlockBytes(a[oa:], bn)
			if err != nil {
				return 0, 0, 0, st, err
			}
			o += copy(dst[o:], a[oa:oa+sa])
			oa += sa
			ob++
			st.Pipeline[PipelineRightConstant]++
		default:
			// Pipeline ④: IFE both blocks → integer add → FE, for the full
			// pair the kernel declined and for the tail block alike.
			wrote, ua, ub, overflow, err := fzlight.SumBlock(dst[o:], a[oa:], b[ob:], pa[:bn], pb, scratch)
			if err != nil {
				return 0, 0, 0, st, err
			}
			if overflow {
				return 0, 0, 0, st, ErrOverflow
			}
			o += wrote
			oa += ua
			ob += ub
			st.Pipeline[PipelineBothEncoded]++
		}
	}
	st.Blocks = int64((n + B - 1) / B)
	return o, oa, ob, st, nil
}

// ScaleBound returns a dst size always sufficient for ScaleIntInto on
// comp: scaling can grow every block to its worst-case code length, so the
// bound is the header plus each chunk's worst-case encoding.
func ScaleBound(comp []byte) (int, error) {
	h, err := fzlight.ParseHeaderLite(comp)
	if err != nil {
		if !errors.Is(err, fzlight.ErrBadVersion) {
			return 0, err
		}
		hp, perr := fzlight.ParseHeader(comp)
		if perr != nil {
			return 0, perr
		}
		total := len(comp) // ≥ the real header size for any version
		for i := 0; i < hp.NumChunks; i++ {
			s, e := fzlight.ChunkElemRange(hp, i)
			total += worstChunkBytes(e-s, hp.BlockSize)
		}
		return total, nil
	}
	total := fzlight.HeaderOverhead(h.NumChunks)
	for i := 0; i < h.NumChunks; i++ {
		s, e := fzlight.ChunkBounds(h.DataLen, h.NumChunks, i)
		total += worstChunkBytes(e-s, h.BlockSize)
	}
	return total, nil
}

// ScaleInt multiplies every value in a compressed stream by the integer k,
// entirely in compressed space. Scaling is linear in the quantized domain,
// so Decompress(ScaleInt(C(v), k)) == k · Decompress(C(v)) exactly. This is
// the building block the paper's future-work section needs for weighted
// reductions.
func ScaleInt(comp []byte, k int32) ([]byte, error) {
	bound, err := ScaleBound(comp)
	if err != nil {
		return nil, err
	}
	buf := bufpool.Bytes(bound)
	n, err := ScaleIntInto(buf, comp, k)
	if err != nil {
		bufpool.PutBytes(buf)
		return nil, err
	}
	out := make([]byte, n)
	copy(out, buf[:n])
	bufpool.PutBytes(buf)
	return out, nil
}

// ScaleIntInto is the reusable-buffer form of ScaleInt: it scales comp by
// k into dst — which must hold at least ScaleBound(comp) bytes — and
// returns the container size. For 1D containers with a single chunk the
// steady state performs zero heap allocations.
func ScaleIntInto(dst, comp []byte, k int32) (int, error) {
	h, err := fzlight.ParseHeaderLite(comp)
	if err != nil {
		if errors.Is(err, fzlight.ErrBadVersion) {
			return scaleIntoSlow(dst, comp, k)
		}
		return 0, err
	}
	hdr := h.PayloadStart()
	nc := h.NumChunks

	if nc == 1 {
		if len(dst) < hdr+worstChunkBytes(h.DataLen, h.BlockSize) {
			return 0, fzlight.ErrShortOutput
		}
		n, err := scaleChunk(dst[hdr:], comp[hdr:], h.DataLen, h.BlockSize, k)
		if err != nil {
			if errors.Is(err, ErrOverflow) {
				mOverflow.Inc()
			}
			return 0, err
		}
		fzlight.MarshalHeaderLite(dst, h)
		fzlight.PutChunkSize(dst, 0, n)
		return hdr + n, nil
	}

	// Multi-chunk: scale in parallel at worst-case offsets, then compact —
	// the same shape as addInto. The index/error scratch is pooled so the
	// chunked steady state pays only the goroutine spawns.
	sc := scaleScratchPool.Get().(*scaleScratch)
	sc.grow(nc)
	offs, offsIn, sizes, errs := sc.offs, sc.offsIn, sc.sizes, sc.errs
	offs[0], offsIn[0] = hdr, hdr
	for i := 0; i < nc; i++ {
		s, e := fzlight.ChunkBounds(h.DataLen, nc, i)
		offsIn[i+1] = offsIn[i] + h.ChunkSize(comp, i)
		offs[i+1] = offs[i] + worstChunkBytes(e-s, h.BlockSize)
	}
	if len(dst) < offs[nc] {
		scaleScratchPool.Put(sc)
		return 0, fzlight.ErrShortOutput
	}
	var wg sync.WaitGroup
	wg.Add(nc)
	for i := 0; i < nc; i++ {
		go func(i int) {
			defer wg.Done()
			s, e := fzlight.ChunkBounds(h.DataLen, nc, i)
			sizes[i], errs[i] = scaleChunk(dst[offs[i]:offs[i+1]], comp[offsIn[i]:offsIn[i+1]], e-s, h.BlockSize, k)
		}(i)
	}
	wg.Wait()
	fzlight.MarshalHeaderLite(dst, h)
	o := hdr
	for i := 0; i < nc; i++ {
		if errs[i] != nil {
			if errors.Is(errs[i], ErrOverflow) {
				mOverflow.Inc()
			}
			err := errs[i]
			scaleScratchPool.Put(sc)
			return 0, err
		}
		copy(dst[o:], dst[offs[i]:offs[i]+sizes[i]])
		fzlight.PutChunkSize(dst, i, sizes[i])
		o += sizes[i]
	}
	scaleScratchPool.Put(sc)
	return o, nil
}

// scaleScratch holds the per-call index and error slices of the
// multi-chunk ScaleIntInto path so repeated chunked scales reuse them
// instead of re-allocating four slices per call.
type scaleScratch struct {
	offs, offsIn []int
	sizes        []int
	errs         []error
}

var scaleScratchPool = sync.Pool{New: func() any { return new(scaleScratch) }}

func (s *scaleScratch) grow(nc int) {
	if cap(s.offs) < nc+1 {
		s.offs = make([]int, nc+1)
		s.offsIn = make([]int, nc+1)
		s.sizes = make([]int, nc)
		s.errs = make([]error, nc)
	}
	s.offs = s.offs[:nc+1]
	s.offsIn = s.offsIn[:nc+1]
	s.sizes = s.sizes[:nc]
	s.errs = s.errs[:nc]
	for i := range s.errs {
		s.errs[i] = nil
	}
}

// scaleIntoSlow scales 2D/3D containers through the allocating chunk path.
func scaleIntoSlow(dst, comp []byte, k int32) (int, error) {
	h, offs, err := fzlight.ChunkOffsets(comp)
	if err != nil {
		return 0, err
	}
	chunks := make([][]byte, h.NumChunks)
	bufs := make([][]byte, h.NumChunks)
	errs := make([]error, h.NumChunks)
	var wg sync.WaitGroup
	for i := 0; i < h.NumChunks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start, end := fzlight.ChunkElemRange(h, i)
			buf := bufpool.Bytes(worstChunkBytes(end-start, h.BlockSize))
			bufs[i] = buf
			n, err := scaleChunk(buf, comp[offs[i]:offs[i+1]], end-start, h.BlockSize, k)
			chunks[i] = buf[:n]
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			if errors.Is(e, ErrOverflow) {
				mOverflow.Inc()
			}
			for _, buf := range bufs {
				bufpool.PutBytes(buf)
			}
			return 0, e
		}
	}
	out := fzlight.AssembleLike(h, chunks)
	for _, buf := range bufs {
		bufpool.PutBytes(buf)
	}
	if len(dst) < len(out) {
		return 0, fzlight.ErrShortOutput
	}
	return copy(dst, out), nil
}

func scaleChunk(dst, src []byte, n, B int, k int32) (int, error) {
	if len(src) < 4 {
		return 0, fzlight.ErrCorrupt
	}
	ov := int64(getInt32(src)) * int64(k)
	if ov > math.MaxInt32 || ov < math.MinInt32 {
		return 0, ErrOverflow
	}
	putInt32(dst, int32(ov))
	oi, o := 4, 4
	p := bufpool.Int32s(B)
	scratch := bufpool.Uint32s(B)
	defer bufpool.PutInt32s(p)
	defer bufpool.PutUint32s(scratch)
	for base := 0; base < n; base += B {
		bn := B
		if base+bn > n {
			bn = n - base
		}
		size, err := fzlight.BlockBytes(src[oi:], bn)
		if err != nil {
			return 0, err
		}
		if src[oi] == 0 || k == 1 {
			o += copy(dst[o:], src[oi:oi+size])
		} else {
			if _, err := fzlight.DecodeBlock(src[oi:], p[:bn], scratch); err != nil {
				return 0, err
			}
			for i := 0; i < bn; i++ {
				s := int64(p[i]) * int64(k)
				if s > math.MaxInt32 || s < math.MinInt32 {
					return 0, ErrOverflow
				}
				p[i] = int32(s)
			}
			o += fzlight.EncodeBlock(dst[o:], p[:bn], scratch)
		}
		oi += size
	}
	if oi != len(src) {
		return 0, fzlight.ErrCorrupt
	}
	return o, nil
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
