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

	"hzccl/internal/bufpool"
	"hzccl/internal/fanout"
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
// Add: the steady state performs zero heap allocations, in every layout
// and at any chunk count — the header is a stack value (fzlight.Header),
// the per-call plan comes from a free list, the chunks run on the fanout
// runner's helpers and all per-chunk scratch comes from bufpool. A chunk
// is reduced on one core: the add is not split below the chunk (DESIGN
// §11.3).
func AddInto(dst, a, b []byte) (int, Stats, error) {
	return addInto(dst, a, b, true)
}

func addInto(dst, a, b []byte, dynamic bool) (int, Stats, error) {
	var stats Stats
	ha, err := fzlight.ParseHeader(a)
	if err != nil {
		return 0, stats, fmt.Errorf("hzdyn: left operand: %w", err)
	}
	hb, err := fzlight.ParseHeader(b)
	if err != nil {
		return 0, stats, fmt.Errorf("hzdyn: right operand: %w", err)
	}
	if ha != hb {
		return 0, stats, ErrGeometry
	}
	if len(dst) < AddBound(len(a), len(b)) {
		return 0, stats, fzlight.ErrShortOutput
	}
	p := newPlan(ha, dst, a, b)
	p.dynamic = dynamic
	n, err := p.run()
	if err == nil {
		for _, st := range p.stats {
			stats.Accumulate(st)
		}
		recordAdd(stats)
	}
	p.release()
	return n, stats, err
}

// plan is one reduction of two containers: a part per chunk, run on the
// fanout runner, each written at its worst-case offset in dst — the pair's
// two input chunks' combined size — and compacted by fzlight's Assemble.
type plan struct {
	h         fzlight.Header
	dst, a, b []byte
	dynamic   bool
	parts     []fzlight.Part
	// Chunk i's payload is a[inA[i]:inA[i+1]] (b[inB[i]:inB[i+1]]).
	inA, inB []int
	stats    []Stats
}

var plans fanout.Free[plan]

func newPlan(h fzlight.Header, dst, a, b []byte) *plan {
	p := plans.Get()
	if p == nil {
		p = new(plan)
	}
	p.h, p.dst, p.a, p.b = h, dst, a, b
	p.parts, p.stats = p.parts[:0], p.stats[:0]
	off := h.PayloadStart()
	p.inA, p.inB = append(p.inA[:0], off), append(p.inB[:0], off)
	for c := 0; c < h.NumChunks; c++ {
		s, e := h.ChunkRange(c)
		sa, sb := h.ChunkSize(a, c), h.ChunkSize(b, c)
		region := sa + sb
		p.inA = append(p.inA, p.inA[c]+sa)
		p.inB = append(p.inB, p.inB[c]+sb)
		p.parts = append(p.parts, fzlight.Part{Chunk: c, Start: s, End: e, Off: off, Limit: off + region})
		p.stats = append(p.stats, Stats{})
		off += region
	}
	return p
}

// Do reduces chunk i.
func (p *plan) Do(i int) {
	pt := &p.parts[i]
	pt.Size, p.stats[i], pt.Err = addChunk(p.dst[pt.Off:pt.Limit], p.a[p.inA[i]:p.inA[i+1]], p.b[p.inB[i]:p.inB[i+1]],
		pt.End-pt.Start, p.h.BlockSize, p.dynamic)
}

// run runs every chunk and assembles the container.
func (p *plan) run() (int, error) {
	fanout.Run(len(p.parts), p)
	n, err := p.h.Assemble(p.dst, p.parts)
	if errors.Is(err, ErrOverflow) {
		mOverflow.Inc()
	}
	return n, err
}

func (p *plan) release() {
	p.dst, p.a, p.b = nil, nil, nil
	plans.Put(p)
}

// recordAdd folds one reduction's statistics into the package telemetry.
func recordAdd(stats Stats) {
	mAddCalls.Inc()
	mBlocks.Add(stats.Blocks)
	for p := PipelineBothConstant; p <= PipelineBothEncoded; p++ {
		mPipelineHist.ObserveN(int64(p), stats.Pipeline[p])
	}
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
