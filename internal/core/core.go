// Package core implements the collective communication algorithms at the
// heart of hZCCL (paper §III-C): ring Reduce_scatter, ring Allgather and
// ring Allreduce in three flavours —
//
//   - Plain: no compression, the original MPI baseline.
//   - CColl: the C-Coll baseline, compression-accelerated collectives with
//     the traditional decompress-operate-compress (DOC) workflow. Every
//     round pays CPR + DPR + CPT.
//   - HZ: the hZCCL co-design. Each rank compresses its N blocks once,
//     every subsequent round reduces *compressed* blocks homomorphically
//     (HPR), and Allreduce additionally skips the decompression at the end
//     of Reduce_scatter and the compression at the start of Allgather by
//     moving compressed blocks straight through the Allgather ring.
//
// All three run on the cluster substrate, move real data and charge
// virtual time per category, so collective times, speedups and runtime
// breakdowns (Figures 2, 7–12; Table VII) come from the same code paths.
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
	// BlockSize is the fZ-light small-block length (0 = default 32).
	BlockSize int
	// Mode selects single- or multi-thread compression.
	Mode Mode
	// MTThreads is the compressor chunk count in multi-thread mode
	// (paper: 18 threads, one socket). Default 18.
	MTThreads int
	// MTSpeedup models the parallel speedup of compression-class work in
	// multi-thread mode. Measured single-core wall time is divided by it.
	// Default 12 (18 threads at ~2/3 efficiency, the memory-bound scaling
	// Broadwell STREAM shows). Only used when Mode == MultiThread.
	MTSpeedup float64
	// Segments splits each C-Coll round's block into this many pieces so
	// compression, transfer and decompression pipeline against each other
	// (the overlap §III-A attributes to C-Coll). ≤ 1 disables
	// segmentation. Used by the *Segmented collective variants.
	Segments int
	// Rates, when non-nil, switches compute charging from measured wall
	// time to a calibrated model: each operation costs rawBytes/rate
	// seconds (divided by MTSpeedup in multi-thread mode). The real work
	// still executes — only its virtual-time charge is modeled. Use this
	// for large rank counts, where per-call measurement overhead on tiny
	// blocks would otherwise dominate the single-thread-measured times.
	Rates *Rates
}

// Rates holds calibrated component throughputs in raw bytes per second
// (single-thread). See costmodel.Measure for one way to obtain them.
type Rates struct {
	CPR float64 // compression
	DPR float64 // decompression
	CPT float64 // raw element-wise sum
	HPR float64 // homomorphic reduction
}

func (o Options) withDefaults() Options {
	if o.MTThreads == 0 {
		o.MTThreads = 18
	}
	if o.MTSpeedup == 0 {
		o.MTSpeedup = 12
	}
	return o
}

func (o Options) threads() int {
	if o.Mode == MultiThread {
		return o.MTThreads
	}
	return 1
}

// scale converts measured wall time into charged virtual time for
// compression-class work.
func (o Options) scale() float64 {
	if o.Mode == MultiThread {
		return 1 / o.MTSpeedup
	}
	return 1
}

// work executes f (real work over rawBytes of raw-equivalent data) and
// charges virtual time for it: measured wall time when no Rates are set,
// or rawBytes/rate otherwise. Multi-thread mode divides either charge by
// MTSpeedup.
func (c Collectives) work(r *cluster.Rank, cat cluster.Category, rawBytes int, f func()) {
	o := c.Opt
	inner := f
	h, rate := stageOf(cat, o.Rates)
	f = func() {
		sp := h.Start()
		inner()
		sp.End()
	}
	if o.Rates == nil {
		r.TimeScaled(cat, o.scale(), f)
		return
	}
	r.Quiesce(f)
	if rate > 0 {
		r.Elapse(cat, float64(rawBytes)/rate*o.scale())
	}
}

func (o Options) params() fzlight.Params {
	return fzlight.Params{ErrorBound: o.ErrorBound, BlockSize: o.BlockSize, Threads: o.threads()}
}

// Collectives bundles Options; its methods are the collective operations.
// Each method must be called from within a cluster rank body, by every
// rank, with equal-length data.
type Collectives struct {
	Opt Options
}

// New returns a Collectives with defaulted options.
func New(opt Options) Collectives { return Collectives{Opt: opt.withDefaults()} }

// BlockOwned returns the index of the reduced block rank `rank` holds
// after a ring Reduce_scatter over n ranks.
func BlockOwned(rank, n int) int { return (rank + 1) % n }

// BlockBounds returns the [start,end) element range of reduce-scatter
// block k when dataLen elements are partitioned across n ranks.
func BlockBounds(dataLen, n, k int) (int, int) { return fzlight.ChunkBounds(dataLen, n, k) }

// compressRaw compresses vals into a bufpool buffer the caller owns. It
// charges nothing: callers wrap it, alone or several at once, in c.work.
func (c Collectives) compressRaw(vals []float32) ([]byte, error) {
	params := c.Opt.params()
	buf := bufpool.Bytes(fzlight.CompressBound(len(vals), params))
	m, err := fzlight.CompressInto(buf, vals, params)
	if err != nil {
		bufpool.PutBytes(buf)
		return nil, err
	}
	return buf[:m], nil
}

// compressPooled is compressRaw under a CPR charge.
func (c Collectives) compressPooled(r *cluster.Rank, vals []float32) (out []byte, err error) {
	c.work(r, cluster.CatCPR, 4*len(vals), func() { out, err = c.compressRaw(vals) })
	return out, err
}

// decompressInto decodes blob into dst under a DPR charge for len(dst)
// values.
func (c Collectives) decompressInto(r *cluster.Rank, blob []byte, dst []float32) (err error) {
	c.work(r, cluster.CatDPR, 4*len(dst), func() { err = fzlight.DecompressInto(blob, dst) })
	return err
}

// reduceDOC is one decompress-operate step: decode got (DPR), set acc to
// sums + got element-wise (CPT; sums may be acc itself) and recycle got,
// which the caller must own whole.
func (c Collectives) reduceDOC(r *cluster.Rank, acc, sums []float32, got []byte) error {
	vals := bufpool.Float32s(len(acc))
	defer bufpool.PutFloat32s(vals)
	if err := c.decompressInto(r, got, vals); err != nil {
		return err
	}
	c.work(r, cluster.CatCPT, 4*len(acc), func() {
		for i, v := range vals {
			acc[i] = sums[i] + v
		}
	})
	bufpool.PutBytes(got)
	return nil
}

// addPooled is one homomorphic reduction step, under an HPR charge for
// elems values: it returns acc + got in a fresh bufpool buffer the caller
// owns. Both operands stay the caller's.
func (c Collectives) addPooled(r *cluster.Rank, acc, got []byte, elems int, stats *hzdyn.Stats) (sum []byte, err error) {
	c.work(r, cluster.CatHPR, 4*elems, func() {
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
