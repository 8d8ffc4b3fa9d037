// Package core implements the collective communication algorithms at the
// heart of hZCCL (paper §III-C): ring Reduce_scatter, ring Allgather and
// ring Allreduce in three flavours —
//
//   - Plain: no compression, the original MPI baseline.
//   - CColl: the C-Coll baseline, compression-accelerated collectives with
//     the traditional decompress-operate-compress (DOC) workflow. Every
//     round pays CPR + DPR + CPT; the decode adds onto the partial sum as
//     it stores (fzlight.DecompressAddInto), so DPR and CPT are one pass.
//   - HZ: the hZCCL co-design. Each rank compresses its N blocks once,
//     every subsequent round reduces *compressed* blocks homomorphically
//     (HPR), and Allreduce additionally skips the decompression at the end
//     of Reduce_scatter and the compression at the start of Allgather by
//     moving compressed blocks straight through the Allgather ring.
//
// All three run on the cluster substrate, move real data and charge
// virtual time per category, so collective times, speedups and runtime
// breakdowns (Figures 2, 7–12; Table VII) come from the same code paths.
// Compute is charged at modelled rates (the paper's §III-C cost terms,
// rawBytes/rate), never at the wall time of the call: a run's virtual time
// is a function of its schedule, sizes and rates alone.
//
// The co-design changes what a partial result is, not the schedule that
// moves it, and the package is cut the same way: schedule.go and hier.go
// write each schedule once over a partial (partial.go), which plain
// (partial.go), C-Coll (ccoll.go) and hZCCL (hz.go) each implement;
// collective.go is the one flavor × algorithm dispatch.
package core

import (
	"hzccl/internal/bufpool"
	"hzccl/internal/cluster"
	"hzccl/internal/fanout"
	"hzccl/internal/fzlight"
	"hzccl/internal/hzdyn"
)

// Mode selects the compression threading mode of a collective run.
type Mode int

// Modes, matching the paper's "single-thread" and "multi-thread" variants.
const (
	SingleThread Mode = iota
	MultiThread
)

func (m Mode) String() string {
	if m == MultiThread {
		return "multi-thread"
	}
	return "single-thread"
}

// Options configures the compression-accelerated collectives.
type Options struct {
	// ErrorBound is the absolute error bound handed to fZ-light.
	ErrorBound float64
	// Mode selects single- or multi-thread compression.
	Mode Mode
	// Segments splits each C-Coll round's block into this many pieces so
	// compression, transfer and decompression pipeline against each other
	// (the overlap §III-A attributes to C-Coll). ≤ 1 disables
	// segmentation. Used by the *Segmented collective variants.
	Segments int
	// Rates are the single-thread component throughputs compute is
	// charged at: each operation costs rawBytes/rate seconds (divided by
	// MTSpeedup in multi-thread mode). The real work still executes; only
	// its virtual-time charge is modelled. Nil selects DefaultRates.
	Rates *Rates
}

// MTThreads is the compressor chunk count of multi-thread mode: the
// paper's 18 threads, one socket.
const MTThreads = 18

// MTSpeedup is the parallel speedup multi-thread mode divides every
// compute charge by: 6, for the paper's 18 threads per socket. The paper's
// own Fig. 2 multi-thread breakdown (DOC 52 % vs MPI 47 %) implies an
// in-collective thread scaling well below the 18-thread ideal, and every
// multi-thread figure (Figs. 2, 7–12, Table VII) rests on this one constant.
const MTSpeedup = 6

// Rates holds calibrated component throughputs in raw bytes per second
// (single-thread). See costmodel.Measure for one way to obtain them.
type Rates struct {
	CPR float64 // compression
	DPR float64 // decompression
	CPT float64 // raw element-wise sum
	HPR float64 // homomorphic reduction
}

// DefaultRates are the rates a nil Options.Rates charges at, and the ones
// AlgoAuto prices with then: 1 / 2 / 8 / 6 GB/s compress, decompress, raw
// sum, homomorphic add. Pinned, so every rank on either fabric clocks and
// prices a shape alike, on any machine and at any load.
var DefaultRates = Rates{CPR: 1e9, DPR: 2e9, CPT: 8e9, HPR: 6e9}

func (o Options) threads() int {
	if o.Mode == MultiThread {
		return MTThreads
	}
	return 1
}

// scale is the share of a single-thread charge that compute costs in o's
// mode.
func (o Options) scale() float64 {
	if o.Mode == MultiThread {
		return 1.0 / MTSpeedup
	}
	return 1
}

// work executes f (real work over rawBytes of raw-equivalent data) and
// charges rawBytes/rate for it. The call's wall time goes to the stage's
// span histogram and the trace's wall timeline, never to the clock; in a
// replay, whose rank has neither, f only runs.
//
// f runs inside fanout.Inline, so a collective's codec call does not split
// across cores: the other ranks of the run already occupy them. On 4 ranks
// over 2 vCPUs, letting the calls split cost allreduce-hz-large and
// allreduce-ccoll-large 4–8 % of their goodput (EXPERIMENTS.md, "One
// clock").
func (c Collectives) work(g comm, cat cluster.Category, rawBytes int, f func()) {
	h, _ := stageOf(cat, c.Opt.Rates)
	sp := g.span(h)
	if r, ok := g.r.(*cluster.Rank); ok {
		r.Wall(cat, func() { fanout.Inline(f) })
	} else {
		f()
	}
	sp.End()
	c.charge(g, cat, rawBytes)
}

// charge is work's modeled charge alone: what a replay's codec primitives
// do in place of their work.
func (c Collectives) charge(g comm, cat cluster.Category, rawBytes int) {
	if _, rate := stageOf(cat, c.Opt.Rates); rate > 0 {
		g.r.Elapse(cat, float64(rawBytes)/rate*c.Opt.scale())
	}
}

func (o Options) params() fzlight.Params {
	return fzlight.Params{ErrorBound: o.ErrorBound, Threads: o.threads()}
}

// Collectives bundles Options; its methods are the collective operations.
// Each method must be called from within a cluster rank body, by every
// rank, with equal-length data.
type Collectives struct {
	Opt Options
}

// New returns a Collectives with options opt.
func New(opt Options) Collectives { return Collectives{Opt: opt} }

// BlockOwned returns the index of the reduced block rank `rank` holds
// after a ring Reduce_scatter over n ranks.
func BlockOwned(rank, n int) int { return (rank + 1) % n }

// BlockBounds returns the [start,end) element range of reduce-scatter
// block k when dataLen elements are partitioned across n ranks.
func BlockBounds(dataLen, n, k int) (int, int) { return fzlight.ChunkBounds(dataLen, n, k) }

// compressRaw compresses vals into a bufpool buffer the caller owns. It
// charges nothing: callers wrap it, alone or several at once, in c.work. A
// replay returns its stand-in for the container instead.
func (c Collectives) compressRaw(g comm, vals []float32) ([]byte, error) {
	if g.replay != nil {
		return g.replay.payload(4 * len(vals)), nil
	}
	params := c.Opt.params()
	buf := bufpool.Bytes(fzlight.CompressBound(len(vals), params))
	m, err := fzlight.CompressInto(buf, vals, params)
	if err != nil {
		bufpool.PutBytes(buf)
		return nil, err
	}
	return buf[:m], nil
}

// The codec primitives below each do one charged step; in a replay they
// only charge it, and hand out a stand-in where a container is due.

// compressPooled is compressRaw under a CPR charge.
func (c Collectives) compressPooled(g comm, vals []float32) (out []byte, err error) {
	if g.replay != nil {
		c.charge(g, cluster.CatCPR, 4*len(vals))
		return g.replay.payload(4 * len(vals)), nil
	}
	c.work(g, cluster.CatCPR, 4*len(vals), func() { out, err = c.compressRaw(g, vals) })
	return out, err
}

// decompressInto decodes blob into dst under a DPR charge for len(dst)
// values.
func (c Collectives) decompressInto(g comm, blob []byte, dst []float32) (err error) {
	if g.replay != nil {
		c.charge(g, cluster.CatDPR, 4*len(dst))
		return nil
	}
	c.work(g, cluster.CatDPR, 4*len(dst), func() { err = fzlight.DecompressInto(blob, dst) })
	return err
}

// reduceDOC is one decompress-operate step: acc = sums + dec(got)
// element-wise (sums may be acc itself) in one fused decode, then got, which
// the caller must own whole, is recycled. It is charged as the two stages it
// fuses, DPR then CPT at their rates.
func (c Collectives) reduceDOC(g comm, acc, sums []float32, got []byte) (err error) {
	if g.replay != nil {
		c.charge(g, cluster.CatDPR, 4*len(acc))
		c.charge(g, cluster.CatCPT, 4*len(acc))
		return nil
	}
	c.work(g, cluster.CatDPR, 4*len(acc), func() { err = fzlight.DecompressAddInto(got, sums, acc) })
	if err != nil {
		return err
	}
	c.charge(g, cluster.CatCPT, 4*len(acc))
	bufpool.PutBytes(got)
	return nil
}

// addPooled is one homomorphic reduction step, under an HPR charge for
// elems values: it returns acc + got in a fresh bufpool buffer the caller
// owns. Both operands stay the caller's.
func (c Collectives) addPooled(g comm, acc, got []byte, elems int, stats *hzdyn.Stats) (sum []byte, err error) {
	if g.replay != nil {
		c.charge(g, cluster.CatHPR, 4*elems)
		return g.replay.payload(4 * elems), nil
	}
	c.work(g, cluster.CatHPR, 4*elems, func() {
		out := bufpool.Bytes(hzdyn.AddBound(len(acc), len(got)))
		m, st, aerr := hzdyn.AddInto(out, acc, got)
		if aerr != nil {
			bufpool.PutBytes(out)
			err = aerr
			return
		}
		sum = out[:m]
		stats.Accumulate(st)
	})
	return sum, err
}
