package core

import (
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

// ReduceScatterCCollSegmented is ReduceScatterCColl with per-round
// segmentation and one-deep pipelining: while segment k is in flight, the
// sender is already compressing segment k+1 and the receiver is reducing
// segment k−1, so the wire time hides behind the DOC pipeline whenever
// per-segment compression outweighs per-segment transfer.
func (c Collectives) ReduceScatterCCollSegmented(r *cluster.Rank, data []float32) ([]float32, error) {
	n := r.N
	segs := c.Opt.Segments
	if segs <= 1 || n == 1 {
		return c.ReduceScatterCColl(r, data)
	}
	opt := c.Opt
	var acc []float32
	r.Quiesce(func() {
		acc = make([]float32, len(data))
		copy(acc, data)
	})
	next, prev := (r.ID+1)%n, (r.ID-1+n)%n
	for step := 0; step < n-1; step++ {
		sendIdx := (r.ID - step + n) % n
		recvIdx := (r.ID - step - 1 + n) % n
		s, e := BlockBounds(len(data), n, sendIdx)
		rs, re := BlockBounds(len(data), n, recvIdx)
		sendRanges := segRanges(e-s, segs)
		recvRanges := segRanges(re-rs, segs)

		reduceSeg := func(k int, got []byte) error {
			ra, rb := rs+recvRanges[k][0], rs+recvRanges[k][1]
			recvVals := make([]float32, rb-ra)
			var derr error
			c.work(r, cluster.CatDPR, 4*(rb-ra), func() {
				derr = fzlight.DecompressInto(got, recvVals)
			})
			if derr != nil {
				return derr
			}
			c.work(r, cluster.CatCPT, 4*(rb-ra), func() { addInto(acc[ra:rb], recvVals) })
			return nil
		}

		// One-deep pipeline: compress+send segment k, then drain segment
		// k−1 — its transfer overlapped the compression just performed.
		for k := range sendRanges {
			a, b := s+sendRanges[k][0], s+sendRanges[k][1]
			var payload []byte
			var cerr error
			c.work(r, cluster.CatCPR, 4*(b-a), func() {
				payload, cerr = fzlight.Compress(acc[a:b], opt.params())
			})
			if cerr != nil {
				return nil, cerr
			}
			if err := r.Send(next, payload); err != nil {
				return nil, err
			}
			countRingBytes(payload, true)
			if k > 0 {
				got, err := r.Recv(prev)
				if err != nil {
					return nil, err
				}
				if err := reduceSeg(k-1, got); err != nil {
					return nil, err
				}
			}
		}
		got, err := r.Recv(prev)
		if err != nil {
			return nil, err
		}
		if err := reduceSeg(len(recvRanges)-1, got); err != nil {
			return nil, err
		}
	}
	s, e := BlockBounds(len(data), n, BlockOwned(r.ID, n))
	out := make([]float32, e-s)
	copy(out, acc[s:e])
	return out, nil
}

// AllreduceCCollSegmented is AllreduceCColl with the segmented
// reduce-scatter stage. The allgather stage stays unsegmented: it moves
// already-compressed bytes with no compute to overlap, so cutting it up
// would only multiply per-message latency.
func (c Collectives) AllreduceCCollSegmented(r *cluster.Rank, data []float32) ([]float32, error) {
	segs := c.Opt.Segments
	if segs <= 1 || r.N == 1 {
		return c.AllreduceCColl(r, data)
	}
	block, err := c.ReduceScatterCCollSegmented(r, data)
	if err != nil {
		return nil, err
	}
	return c.allgatherCompressBlock(world(r), block, len(data))
}
