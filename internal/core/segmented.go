package core

import (
	"hzccl/internal/bufpool"
	"hzccl/internal/cluster"
	"hzccl/internal/fzlight"
)

// Segmented pipelining. The paper notes that C-Coll "overlaps the
// compression with communication to reduce the overall collective
// runtime" (§III-A); the mechanism is segmentation: each per-round block
// is split into S segments so that compressing segment k+1 overlaps the
// transfer of segment k, and the receiver decompresses segment k while
// k+1 is still in flight. In the virtual-time model this overlap falls
// out naturally — each segment's arrival is pinned to the sender's clock
// at *its* send, so downstream work on early segments proceeds while
// later segments are still being produced.
//
// Segmentation applies to the C-Coll backend (the hZCCL backend already
// hides most compression by compressing once up front); Options.Segments
// ≤ 1 disables it.

// segRanges splits n elements into s contiguous ranges (balanced like
// ChunkBounds).
func segRanges(n, s int) [][2]int {
	if s < 1 {
		s = 1
	}
	if s > n {
		s = n
	}
	if n == 0 {
		return [][2]int{{0, 0}}
	}
	out := make([][2]int, s)
	for i := 0; i < s; i++ {
		a, b := fzlight.ChunkBounds(n, s, i)
		out[i] = [2]int{a, b}
	}
	return out
}

// ReduceScatterCCollSegmented is the C-Coll ring reduce-scatter with per-round
// segmentation and one-deep pipelining: while segment k is in flight, the
// sender is already compressing segment k+1 and the receiver is reducing
// segment k−1, so the wire time hides behind the DOC pipeline whenever
// per-segment compression outweighs per-segment transfer.
func (c Collectives) ReduceScatterCCollSegmented(r *cluster.Rank, data []float32) ([]float32, error) {
	n := r.N
	segs := c.Opt.Segments
	if segs <= 1 || n == 1 {
		out, _, err := c.ReduceScatter(r, FlavorCColl, AlgoRing, data)
		return out, err
	}
	g := world(r)
	acc := bufpool.Float32s(len(data))
	defer bufpool.PutFloat32s(acc)
	copy(acc, data)
	next, prev := (r.ID+1)%n, (r.ID-1+n)%n
	for step := 0; step < n-1; step++ {
		s, e := BlockBounds(len(data), n, (r.ID-step+n)%n)
		rs, re := BlockBounds(len(data), n, (r.ID-step-1+n)%n)
		send, recv := segRanges(e-s, segs), segRanges(re-rs, segs)
		// One-deep pipeline: compress+send segment k, then drain segment
		// k−1 — its transfer overlapped the compression just performed.
		for k := 0; k < len(send) || k <= len(recv); k++ {
			if k < len(send) {
				payload, err := c.compressPooled(g, acc[s+send[k][0]:s+send[k][1]])
				if err != nil {
					return nil, err
				}
				err = g.send(next, payload, true)
				bufpool.PutBytes(payload)
				if err != nil {
					return nil, err
				}
			}
			if k > 0 && k <= len(recv) {
				got, err := g.recv(prev)
				if err != nil {
					return nil, err
				}
				blk := acc[rs+recv[k-1][0] : rs+recv[k-1][1]]
				if err := c.reduceDOC(g, blk, blk, got); err != nil {
					return nil, err
				}
			}
		}
	}
	s, e := BlockBounds(len(data), n, BlockOwned(r.ID, n))
	out := make([]float32, e-s)
	copy(out, acc[s:e])
	return out, nil
}

// AllreduceCCollSegmented is the C-Coll ring allreduce with the segmented
// reduce-scatter stage. The allgather stage stays unsegmented: it moves
// already-compressed bytes with no compute to overlap, so cutting it up
// would only multiply per-message latency.
func (c Collectives) AllreduceCCollSegmented(r *cluster.Rank, data []float32) ([]float32, error) {
	block, err := c.ReduceScatterCCollSegmented(r, data)
	if err != nil {
		return nil, err
	}
	return c.allgatherBlock(world(r), block, len(data))
}
