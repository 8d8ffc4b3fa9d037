package core

import (
	"hzccl/internal/bufpool"
	"hzccl/internal/cluster"
	"hzccl/internal/hzdyn"
)

// The paper's ablations. Each differs from a cell of the flavor × schedule
// matrix in the schedule itself — where it compresses, not what a partial
// result is — so each keeps its own function on top of the shared pieces.

// allgatherBlock is the C-Coll ring allgather on its own: compress this
// rank's finished block once (CPR), move compressed bytes around the ring,
// decompress every block (N × DPR).
func (c Collectives) allgatherBlock(g comm, block []float32, dataLen int) ([]float32, error) {
	out := make([]float32, dataLen)
	s, e := BlockBounds(dataLen, g.n(), BlockOwned(g.id, g.n()))
	copy(out[s:e], block)
	p, err := c.newPartial(FlavorCColl, blocks{g: g, nb: g.n(), full: true, into: out}, out, nil)
	if err != nil {
		return nil, err
	}
	defer p.close()
	if err := ringAllgatherBlocks(g, p); err != nil {
		return nil, err
	}
	return p.result()
}

// AllreduceHZNaive is the ablation variant that does NOT fuse the stages:
// it decompresses at the end of reduce-scatter and recompresses before the
// allgather, paying the extra DPR + CPR the co-design removes. It exists
// to quantify the benefit of the Allreduce-specific optimization
// (paper §III-C2).
func (c Collectives) AllreduceHZNaive(r *cluster.Rank, data []float32) ([]float32, *hzdyn.Stats, error) {
	block, stats, err := c.ReduceScatter(r, FlavorHZ, AlgoRing, data) // includes final DPR
	if err != nil {
		return nil, nil, err
	}
	out, err := c.allgatherBlock(world(r), block, len(data))
	if err != nil {
		return nil, nil, err
	}
	return out, stats, nil
}

// AllreduceCPRP2P is the pre-C-Coll baseline the paper positions C-Coll
// against (§III-A, citing Zhou et al.): compression bolted onto every
// point-to-point message independently, with no collective-level co-design.
// The reduce-scatter stage matches C-Coll's (each round compresses what it
// sends and decompresses what it receives — there is nothing left to strip
// there), but the allgather stage decompresses each forwarded block on
// arrival and recompresses it before the next hop: (N−1)·(CPR+DPR) per rank
// instead of C-Coll's 1·CPR + (N−1)·DPR, exactly the overhead C-Coll's
// "compress once" allgather removes.
func (c Collectives) AllreduceCPRP2P(r *cluster.Rank, data []float32) ([]float32, error) {
	block, _, err := c.ReduceScatter(r, FlavorCColl, AlgoRing, data)
	if err != nil {
		return nil, err
	}
	g, n := world(r), r.N
	out := make([]float32, len(data))
	s, e := BlockBounds(len(data), n, BlockOwned(r.ID, n))
	copy(out[s:e], block)
	next, prev := (r.ID+1)%n, (r.ID-1+n)%n
	cur := out[s:e]
	for step := 0; step < n-1; step++ {
		payload, err := c.compressPooled(g, cur)
		if err != nil {
			return nil, err
		}
		got, err := g.sendRecv(next, payload, prev, true)
		bufpool.PutBytes(payload) // Send is done with it: dead either way
		if err != nil {
			return nil, err
		}
		// The forwarded values live on in the output array, so the next
		// hop compresses from there.
		os, oe := BlockBounds(len(data), n, BlockOwned((r.ID-step-1+n)%n, n))
		cur = out[os:oe]
		if err := c.decompressInto(g, got, cur); err != nil {
			return nil, err
		}
		bufpool.PutBytes(got)
	}
	return out, nil
}
