package core

import (
	"hzccl/internal/bufpool"
	"hzccl/internal/cluster"
	"hzccl/internal/fzlight"
)

// CPR-P2P is the pre-C-Coll baseline the paper positions C-Coll against
// (§III-A, citing Zhou et al.): compression is bolted onto every
// point-to-point message independently, with no collective-level co-design.
// In the allgather stage this means each forwarded block is decompressed
// on arrival and recompressed before the next hop — (N−1)·(CPR+DPR) per
// rank instead of C-Coll's 1·CPR + (N−1)·DPR — which is exactly the
// overhead C-Coll's "compress once" allgather removes.

// AllreduceCPRP2P is the ring allreduce with per-message compression: the
// reduce-scatter stage matches C-Coll's (each round compresses what it
// sends and decompresses what it receives — there is nothing left to
// strip there), but the allgather stage re-compresses at every hop.
func (c Collectives) AllreduceCPRP2P(r *cluster.Rank, data []float32) ([]float32, error) {
	block, err := c.ReduceScatterCColl(r, data)
	if err != nil {
		return nil, err
	}
	n := r.N
	opt := c.Opt
	out := make([]float32, len(data))
	k := BlockOwned(r.ID, n)
	s, e := BlockBounds(len(data), n, k)
	copy(out[s:e], block)
	if n == 1 {
		return out, nil
	}
	next, prev := (r.ID+1)%n, (r.ID-1+n)%n
	params := opt.params()
	cur := block
	for step := 0; step < n-1; step++ {
		// Per-message compression: the forwarded block is recompressed at
		// every hop (the naive point-to-point treatment). The compressed
		// payload and the received container live in pooled buffers that
		// recycle as soon as the transport copy / decode consumes them.
		payload := bufpool.Bytes(fzlight.CompressBound(len(cur), params))
		var m int
		var cerr error
		c.work(r, cluster.CatCPR, 4*len(cur), func() {
			m, cerr = fzlight.CompressInto(payload, cur, params)
		})
		if cerr != nil {
			bufpool.PutBytes(payload)
			return nil, cerr
		}
		got, err := world(r).sendRecv(next, payload[:m], prev, true)
		bufpool.PutBytes(payload) // copied on send: dead either way
		if err != nil {
			return nil, err
		}
		origin := (r.ID - step - 1 + n) % n
		ok := BlockOwned(origin, n)
		os, oe := BlockBounds(len(data), n, ok)
		recv := bufpool.Float32s(oe - os)
		var derr error
		c.work(r, cluster.CatDPR, 4*(oe-os), func() {
			derr = fzlight.DecompressInto(got, recv)
		})
		bufpool.PutBytes(got)
		if derr != nil {
			bufpool.PutFloat32s(recv)
			return nil, derr
		}
		copy(out[os:oe], recv)
		bufpool.PutFloat32s(recv)
		// The forwarded values live on in the output array, so the next
		// hop compresses from there instead of retaining recv.
		cur = out[os:oe]
	}
	return out, nil
}
