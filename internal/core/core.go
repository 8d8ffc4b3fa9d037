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
package core

import (
	"fmt"
	"sync"

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
	h := stageHist(cat)
	f = func() {
		sp := h.Start()
		inner()
		sp.End()
	}
	if o.Rates == nil {
		r.TimeScaled(cat, o.scale(), f)
		return
	}
	var rate float64
	switch cat {
	case cluster.CatCPR:
		rate = o.Rates.CPR
	case cluster.CatDPR:
		rate = o.Rates.DPR
	case cluster.CatCPT:
		rate = o.Rates.CPT
	case cluster.CatHPR:
		rate = o.Rates.HPR
	default:
		rate = o.Rates.CPT
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

// addInto accumulates src into dst element-wise.
func addInto(dst, src []float32) {
	for i, v := range src {
		dst[i] += v
	}
}

// ---------------------------------------------------------------------------
// Plain (no compression) — the "original MPI" baseline.
// ---------------------------------------------------------------------------

// ReduceScatterPlain performs a ring reduce-scatter of data (summed
// element-wise across ranks) and returns this rank's fully reduced block
// (block index BlockOwned(rank, N)).
func (c Collectives) ReduceScatterPlain(r *cluster.Rank, data []float32) ([]float32, error) {
	acc := bufpool.Float32s(len(data))
	defer bufpool.PutFloat32s(acc)
	r.Quiesce(func() { copy(acc, data) })
	block, err := c.ringReducePlain(world(r), acc)
	if err != nil {
		return nil, err
	}
	out := make([]float32, len(block))
	copy(out, block)
	return out, nil
}

// ringReducePlain runs the plain ring reduce-scatter in place in acc and
// returns this rank's fully reduced block — a sub-slice of acc, whose other
// blocks are left holding partial sums.
func (c Collectives) ringReducePlain(g comm, acc []float32) ([]float32, error) {
	n := g.n()
	var out []byte
	defer func() { bufpool.PutBytes(out) }()
	next, prev := (g.id+1)%n, (g.id-1+n)%n
	for step := 0; step < n-1; step++ {
		s, e := BlockBounds(len(acc), n, (g.id-step+n)%n)
		got, err := g.sendRecv(next, g.stage(&out, acc[s:e]), prev, false)
		if err != nil {
			return nil, err
		}
		rs, re := BlockBounds(len(acc), n, (g.id-step-1+n)%n)
		if err := c.reduceInto(g, acc[rs:re], got, "reduce-scatter step", step); err != nil {
			return nil, err
		}
	}
	s, e := BlockBounds(len(acc), n, BlockOwned(g.id, n))
	return acc[s:e], nil
}

// ringAllgatherPlain stages and sends own at step 0 and forwards the buffer
// just received at every later step; store sees each received payload (and
// the local id it originated from) first and must not retain it.
func (g comm) ringAllgatherPlain(own []float32, store func(origin int, got []byte) error) error {
	n := g.n()
	if n == 1 {
		return nil
	}
	cur := g.staged(own)
	next, prev := (g.id+1)%n, (g.id-1+n)%n
	for step := 0; step < n-1; step++ {
		got, err := g.sendRecv(next, cur, prev, false)
		bufpool.PutBytes(cur) // copied on send: dead either way
		if err != nil {
			return err
		}
		if err := store((g.id-step-1+n)%n, got); err != nil {
			return err
		}
		cur = got
	}
	bufpool.PutBytes(cur)
	return nil
}

// allgatherBytes runs a ring allgather of opaque payloads over the
// communicator. The result maps origin local id → payload (own entry
// included). compressed labels the payloads for the wire-byte telemetry
// split.
func allgatherBytes(g comm, own []byte, compressed bool) ([][]byte, error) {
	n := g.n()
	out := make([][]byte, n)
	out[g.id] = own
	if n == 1 {
		return out, nil
	}
	next, prev := (g.id+1)%n, (g.id-1+n)%n
	cur := own
	for step := 0; step < n-1; step++ {
		got, err := g.sendRecv(next, cur, prev, compressed)
		if err != nil {
			return nil, err
		}
		origin := (g.id - step - 1 + n) % n
		out[origin] = got
		cur = got
	}
	return out, nil
}

// AllreducePlain is the original MPI ring allreduce: plain reduce-scatter
// followed by plain allgather of the raw reduced blocks, both in place in
// the result — the op's one allocation.
func (c Collectives) AllreducePlain(r *cluster.Rank, data []float32) ([]float32, error) {
	out := make([]float32, len(data))
	r.Quiesce(func() { copy(out, data) })
	return c.allreducePlainInPlace(world(r), out)
}

// allreducePlainInPlace ring-reduce-scatters and ring-allgathers inside v,
// which the caller must own, and returns it.
func (c Collectives) allreducePlainInPlace(g comm, v []float32) ([]float32, error) {
	own, err := c.ringReducePlain(g, v)
	if err != nil {
		return nil, err
	}
	err = g.ringAllgatherPlain(own, func(origin int, got []byte) error {
		s, e := BlockBounds(len(v), g.n(), BlockOwned(origin, g.n()))
		return g.decodeInto(v[s:e], got, "allgather origin", origin)
	})
	if err != nil {
		return nil, err
	}
	return v, nil
}

// ---------------------------------------------------------------------------
// C-Coll — compression-accelerated collectives with the DOC workflow.
// ---------------------------------------------------------------------------

// ReduceScatterCColl is the C-Coll ring reduce-scatter: each round
// compresses the outgoing block (CPR), decompresses the incoming block
// (DPR) and reduces it in the raw domain (CPT) — the paper's
// T = (N−1)(CPR + DPR + CPT).
func (c Collectives) ReduceScatterCColl(r *cluster.Rank, data []float32) ([]float32, error) {
	return c.reduceScatterCCollG(world(r), data)
}

func (c Collectives) reduceScatterCCollG(g comm, data []float32) ([]float32, error) {
	n := g.n()
	r := g.r
	if n == 1 {
		out := make([]float32, len(data))
		copy(out, data)
		return out, nil
	}
	params := c.Opt.params()
	acc := bufpool.Float32s(len(data))
	defer bufpool.PutFloat32s(acc)
	r.Quiesce(func() { copy(acc, data) })
	next, prev := (g.id+1)%n, (g.id-1+n)%n
	for step := 0; step < n-1; step++ {
		sendIdx := (g.id - step + n) % n
		recvIdx := (g.id - step - 1 + n) % n
		s, e := BlockBounds(len(data), n, sendIdx)
		payload := bufpool.Bytes(fzlight.CompressBound(e-s, params))
		var m int
		var cerr error
		c.work(r, cluster.CatCPR, 4*(e-s), func() {
			m, cerr = fzlight.CompressInto(payload, acc[s:e], params)
		})
		if cerr != nil {
			bufpool.PutBytes(payload)
			return nil, cerr
		}
		got, err := g.sendRecv(next, payload[:m], prev, true)
		// Send copied the payload (and the reliable layer keeps its own
		// pristine copy), so the buffer is dead either way.
		bufpool.PutBytes(payload)
		if err != nil {
			return nil, err
		}
		rs, re := BlockBounds(len(data), n, recvIdx)
		recvVals := bufpool.Float32s(re - rs)
		var derr error
		c.work(r, cluster.CatDPR, 4*(re-rs), func() {
			derr = fzlight.DecompressInto(got, recvVals)
		})
		if derr != nil {
			bufpool.PutFloat32s(recvVals)
			return nil, derr
		}
		c.work(r, cluster.CatCPT, 4*(re-rs), func() { addInto(acc[rs:re], recvVals) })
		bufpool.PutFloat32s(recvVals)
		bufpool.PutBytes(got)
	}
	s, e := BlockBounds(len(data), n, BlockOwned(g.id, n))
	out := make([]float32, e-s)
	copy(out, acc[s:e])
	return out, nil
}

// AllreduceCColl is the C-Coll ring allreduce: DOC reduce-scatter, then an
// allgather that compresses the local reduced block once (CPR), moves
// compressed bytes around the ring, and decompresses the N−1 received
// blocks (DPR) — the paper's T_AG = CPR + (N−1)·DPR.
func (c Collectives) AllreduceCColl(r *cluster.Rank, data []float32) ([]float32, error) {
	return c.allreduceCCollG(world(r), data)
}

func (c Collectives) allreduceCCollG(g comm, data []float32) ([]float32, error) {
	block, err := c.reduceScatterCCollG(g, data)
	if err != nil {
		return nil, err
	}
	return c.allgatherCompressBlock(g, block, len(data))
}

// allgatherCompressBlock compresses a raw reduced block once (CPR) and
// runs the compressed allgather tail.
func (c Collectives) allgatherCompressBlock(g comm, block []float32, dataLen int) ([]float32, error) {
	var own []byte
	var cerr error
	c.work(g.r, cluster.CatCPR, 4*len(block), func() {
		own, cerr = fzlight.Compress(block, c.Opt.params())
	})
	if cerr != nil {
		return nil, cerr
	}
	return c.allgatherAssembleCompressed(g, own, dataLen)
}

// allgatherAssembleCompressed runs the compressed allgather tail shared by
// the C-Coll and hZCCL allreduces: every rank's compressed block travels
// the ring, each origin's payload decompresses into the block that origin
// owned, and the payload buffers (the local one included) recycle through
// bufpool once decoded. Safe because allgatherBytes holds exactly one
// reference to each payload and Send copies on enqueue.
func (c Collectives) allgatherAssembleCompressed(g comm, own []byte, dataLen int) ([]float32, error) {
	gathered, err := allgatherBytes(g, own, true)
	if err != nil {
		return nil, err
	}
	out := make([]float32, dataLen)
	for origin, payload := range gathered {
		k := BlockOwned(origin, g.n())
		s, e := BlockBounds(dataLen, g.n(), k)
		var derr error
		c.work(g.r, cluster.CatDPR, 4*(e-s), func() {
			derr = fzlight.DecompressInto(payload, out[s:e])
		})
		if derr != nil {
			return nil, fmt.Errorf("core: rank %d decoding block %d: %w", g.r.ID, k, derr)
		}
		bufpool.PutBytes(payload)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// hZCCL — homomorphic compression-accelerated collectives.
// ---------------------------------------------------------------------------

// reduceScatterHZCompressed runs the hZCCL ring reduce-scatter and stops
// before the final decompression, returning this rank's fully reduced
// block in compressed form. Cost: N·CPR + (N−1)·HPR.
//
// The round-1 compression is pipelined against the ring (paper §III-C):
// the step-0 outgoing block — always block index r.ID — compresses and
// sends first, so the first exchange is already in flight while the
// remaining N−1 blocks compress. The CPR charge is unchanged (it is split
// 1 + (N−1) around the first send); only the send timestamp moves earlier,
// which is exactly the compute/communication overlap the co-design is
// after. Every compressed block lives in a bufpool buffer and recycles the
// moment it is dead: outgoing blocks right after Send (the transport
// copies on enqueue — see cluster.Send — and the reliable layer's
// retransmit window keeps its own pristine copy), received payloads and
// replaced accumulators right after the homomorphic Add consumes them.
// Only the owned block's buffer escapes, to the caller.
func (c Collectives) reduceScatterHZCompressed(g comm, data []float32) ([]byte, *hzdyn.Stats, error) {
	n := g.n()
	r := g.r
	params := c.Opt.params()
	stats := &hzdyn.Stats{}

	cblocks := make([][]byte, n)
	compressBlock := func(k int) error {
		s, e := BlockBounds(len(data), n, k)
		buf := bufpool.Bytes(fzlight.CompressBound(e-s, params))
		m, err := fzlight.CompressInto(buf, data[s:e], params)
		if err != nil {
			bufpool.PutBytes(buf)
			return err
		}
		cblocks[k] = buf[:m]
		return nil
	}

	first := g.id // the block sent at step 0
	fs, fe := BlockBounds(len(data), n, first)
	var cerr error
	c.work(r, cluster.CatCPR, 4*(fe-fs), func() { cerr = compressBlock(first) })
	if cerr != nil {
		return nil, nil, cerr
	}
	if n == 1 {
		return cblocks[0], stats, nil
	}

	next, prev := (g.id+1)%n, (g.id-1+n)%n
	for step := 0; step < n-1; step++ {
		sendIdx := (g.id - step + n) % n
		recvIdx := (g.id - step - 1 + n) % n
		if err := g.send(next, cblocks[sendIdx], true); err != nil {
			return nil, nil, err
		}
		bufpool.PutBytes(cblocks[sendIdx]) // copied on send: dead here
		cblocks[sendIdx] = nil
		if step == 0 {
			// The other N−1 blocks compress while the first exchange is in
			// flight (the remaining N−1 of the N × CPR charge).
			c.work(r, cluster.CatCPR, 4*(len(data)-(fe-fs)), func() {
				cerr = c.compressBlocksExcept(compressBlock, first, n)
			})
			if cerr != nil {
				return nil, nil, cerr
			}
		}
		got, err := g.recv(prev)
		if err != nil {
			return nil, nil, err
		}
		rs, re := BlockBounds(len(data), n, recvIdx)
		if cblocks[recvIdx], err = c.addPooled(r, cblocks[recvIdx], got, re-rs, stats); err != nil {
			return nil, nil, err
		}
		bufpool.PutBytes(got)
	}
	return cblocks[BlockOwned(g.id, n)], stats, nil
}

// compressPooled compresses vals into a bufpool buffer the caller owns,
// under a CPR charge.
func (c Collectives) compressPooled(r *cluster.Rank, vals []float32) ([]byte, error) {
	params := c.Opt.params()
	var out []byte
	var cerr error
	c.work(r, cluster.CatCPR, 4*len(vals), func() {
		buf := bufpool.Bytes(fzlight.CompressBound(len(vals), params))
		m, err := fzlight.CompressInto(buf, vals, params)
		if err != nil {
			bufpool.PutBytes(buf)
			cerr = err
			return
		}
		out = buf[:m]
	})
	return out, cerr
}

// addPooled is one homomorphic reduction step, under an HPR charge for
// elems values: it returns acc + got in a fresh bufpool buffer and recycles
// acc, which the caller must own and not reference anywhere else. got is
// the caller's to recycle — whole received payloads qualify (the transport
// copied them), blobs inside a frame do not.
func (c Collectives) addPooled(r *cluster.Rank, acc, got []byte, elems int, stats *hzdyn.Stats) ([]byte, error) {
	var sum []byte
	var herr error
	c.work(r, cluster.CatHPR, 4*elems, func() {
		out := bufpool.Bytes(hzdyn.AddBound(len(acc), len(got)))
		m, st, err := hzdyn.AddInto(out, acc, got)
		if err != nil {
			bufpool.PutBytes(out)
			herr = err
			return
		}
		bufpool.PutBytes(acc)
		sum = out[:m]
		stats.Accumulate(st)
	})
	return sum, herr
}

// compressBlocksExcept compresses every reduce-scatter block except
// `first` — concurrently across blocks when virtual-time charging is
// modeled (Options.Rates), since the charge then depends only on byte
// counts and the wall-clock win is free; sequentially when compute time is
// measured, so the measurement stays single-core physical.
func (c Collectives) compressBlocksExcept(compressBlock func(int) error, first, n int) error {
	if c.Opt.Rates == nil || n <= 2 {
		for k := 0; k < n; k++ {
			if k == first {
				continue
			}
			if err := compressBlock(k); err != nil {
				return err
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for k := 0; k < n; k++ {
		if k == first {
			continue
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = compressBlock(k)
		}(k)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// ReduceScatterHZ is the hZCCL ring reduce-scatter (paper cost
// N·CPR + 1·DPR + (N−1)·HPR): compress once, reduce homomorphically, and
// decompress only the final owned block.
func (c Collectives) ReduceScatterHZ(r *cluster.Rank, data []float32) ([]float32, *hzdyn.Stats, error) {
	return c.reduceScatterHZG(world(r), data)
}

func (c Collectives) reduceScatterHZG(g comm, data []float32) ([]float32, *hzdyn.Stats, error) {
	comp, stats, err := c.reduceScatterHZCompressed(g, data)
	if err != nil {
		return nil, nil, err
	}
	bs, be := BlockBounds(len(data), g.n(), BlockOwned(g.id, g.n()))
	var out []float32
	var derr error
	c.work(g.r, cluster.CatDPR, 4*(be-bs), func() {
		out, derr = fzlight.Decompress(comp)
	})
	bufpool.PutBytes(comp) // exclusively ours, dead after the decode
	if derr != nil {
		return nil, nil, derr
	}
	return out, stats, nil
}

// AllreduceHZ is the fully co-designed hZCCL allreduce: the reduce-scatter
// stage keeps its result compressed (no DPR), the allgather stage sends
// those compressed blocks directly (no CPR), and each rank decompresses
// the N gathered blocks at the end — the paper's
// T = N·CPR + (N−1)·HPR + (N−1)·DPR.
func (c Collectives) AllreduceHZ(r *cluster.Rank, data []float32) ([]float32, *hzdyn.Stats, error) {
	return c.allreduceHZG(world(r), data)
}

func (c Collectives) allreduceHZG(g comm, data []float32) ([]float32, *hzdyn.Stats, error) {
	comp, stats, err := c.reduceScatterHZCompressed(g, data)
	if err != nil {
		return nil, nil, err
	}
	out, err := c.allgatherAssembleCompressed(g, comp, len(data))
	if err != nil {
		return nil, nil, err
	}
	return out, stats, nil
}

// AllreduceHZNaive is the ablation variant that does NOT fuse the stages:
// it decompresses at the end of reduce-scatter and recompresses before the
// allgather, paying the extra DPR + CPR the co-design removes. It exists
// to quantify the benefit of the Allreduce-specific optimization
// (paper §III-C2).
func (c Collectives) AllreduceHZNaive(r *cluster.Rank, data []float32) ([]float32, *hzdyn.Stats, error) {
	block, stats, err := c.ReduceScatterHZ(r, data) // includes final DPR
	if err != nil {
		return nil, nil, err
	}
	out, err := c.allgatherCompressBlock(world(r), block, len(data))
	if err != nil {
		return nil, nil, err
	}
	return out, stats, nil
}
