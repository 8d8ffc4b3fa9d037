package core

import (
	"fmt"

	"hzccl/internal/bufpool"
	"hzccl/internal/cluster"
	"hzccl/internal/fzlight"
	"hzccl/internal/hzdyn"
)

// Two-level hierarchical collectives. Ranks group into "nodes"
// (cluster.Config.Topology); the schedule exploits the fact that
// intra-node links are effectively free next to inter-node ones:
//
//  1. ring reduce-scatter among the node's members, so each member holds
//     a fully node-reduced block,
//  2. members ship their blocks to the node leader, which assembles the
//     node-partial vector,
//  3. ring allreduce among the node leaders only — the sole stage that
//     crosses node boundaries moves each byte once per leader pair
//     instead of once per rank pair,
//  4. binomial broadcast of the finished vector inside each node (or, for
//     reduce-scatter, a scatter of just each member's owned block).
//
// With no topology configured, Normalize yields a single node holding
// every rank: stage 3 degenerates to a 1-rank no-op and the schedule is a
// ring reduce-scatter plus gather/broadcast — correct, if pointless, so
// the cost model never selects it for flat clusters.
//
// Compression crosses every stage boundary honestly: for the C-Coll and
// hZCCL backends the member→leader blocks and the leader→member result
// travel compressed (CPR at the producer, DPR at the consumer), and stage
// 3 runs the backend's own ring allreduce among the leaders.

// hierComms splits the world into this rank's intra-node communicator and
// (for leaders) the inter-node leader communicator. leader is false — and
// inter unusable — for non-leader ranks.
func hierComms(r *cluster.Rank) (intra comm, inter comm, leader bool) {
	topo := r.Config().Topology.Normalize(r.N)
	node := topo.NodeOf(r.ID)
	intra, _ = subcomm(r, topo.Members(node))
	inter, leader = subcomm(r, topo.Leaders())
	return intra, inter, leader
}

// codec is one backend's wire form for the hierarchical stage boundaries:
// raw float bits for Plain, fzlight-compressed for C-Coll and hZCCL.
type codec struct {
	encode func(vals []float32) ([]byte, error)
	decode func(payload []byte, dst []float32) error
	// compressed labels payloads for the wire-byte telemetry split.
	compressed bool
}

// rawCodec encodes into pooled buffers and recycles what it decodes.
func rawCodec(r *cluster.Rank) codec {
	g := world(r)
	return codec{
		encode: func(vals []float32) ([]byte, error) { return g.staged(vals), nil },
		decode: func(payload []byte, dst []float32) error {
			return g.storeInto(dst, payload, "hierarchical stage", 0)
		},
	}
}

// compressedCodec charges CPR on encode and DPR on decode to the
// performing rank.
func (c Collectives) compressedCodec(r *cluster.Rank) codec {
	opt := c.Opt
	return codec{
		compressed: true,
		encode: func(vals []float32) ([]byte, error) {
			var out []byte
			var cerr error
			c.work(r, cluster.CatCPR, 4*len(vals), func() {
				out, cerr = fzlight.Compress(vals, opt.params())
			})
			return out, cerr
		},
		decode: func(payload []byte, dst []float32) error {
			var derr error
			c.work(r, cluster.CatDPR, 4*len(dst), func() {
				derr = fzlight.DecompressInto(payload, dst)
			})
			return derr
		},
	}
}

// gatherNodePartial runs stage 2: every member sends its reduced block to
// the leader (local id 0), which assembles the full node-partial vector.
// Non-leader ranks return nil.
func gatherNodePartial(g comm, dataLen int, block []float32, cd codec) ([]float32, error) {
	m := g.n()
	if m == 1 {
		out := make([]float32, dataLen)
		copy(out, block)
		return out, nil
	}
	if g.id != 0 {
		payload, err := cd.encode(block)
		if err != nil {
			return nil, err
		}
		err = g.send(0, payload, cd.compressed)
		bufpool.PutBytes(payload)
		return nil, err
	}
	partial := make([]float32, dataLen)
	s, e := BlockBounds(dataLen, m, BlockOwned(0, m))
	copy(partial[s:e], block)
	for j := 1; j < m; j++ {
		payload, err := g.recv(j)
		if err != nil {
			return nil, err
		}
		bs, be := BlockBounds(dataLen, m, BlockOwned(j, m))
		if err := cd.decode(payload, partial[bs:be]); err != nil {
			return nil, fmt.Errorf("core: leader %d assembling member %d block: %w", g.r.ID, j, err)
		}
	}
	return partial, nil
}

// bcastResult runs stage 4 of the allreduce: the leader encodes the
// finished vector once and the binomial tree fans it out; members decode.
func bcastResult(g comm, full []float32, dataLen int, leader bool, cd codec) ([]float32, error) {
	var cerr error
	payload, err := bcastBytesG(g, func() []byte {
		var p []byte
		p, cerr = cd.encode(full)
		if cerr != nil {
			return nil
		}
		return p
	}, 0)
	if cerr != nil {
		return nil, cerr
	}
	if err != nil {
		return nil, err
	}
	if leader {
		bufpool.PutBytes(payload)
		return full, nil
	}
	out := make([]float32, dataLen)
	if err := cd.decode(payload, out); err != nil {
		return nil, err
	}
	return out, nil
}

// scatterOwnedBlocks runs stage 4 of the reduce-scatter: the leader sends
// each member only the block that member owns under the *world*
// reduce-scatter contract (block BlockOwned(globalRank, worldN)), instead
// of broadcasting the whole vector.
func scatterOwnedBlocks(g comm, full []float32, dataLen int, cd codec) ([]float32, error) {
	r := g.r
	ownBlock := func(global int) (int, int) {
		return BlockBounds(dataLen, r.N, BlockOwned(global, r.N))
	}
	if g.id == 0 {
		for j := 1; j < g.n(); j++ {
			s, e := ownBlock(g.global(j))
			payload, err := cd.encode(full[s:e])
			if err != nil {
				return nil, err
			}
			err = g.send(j, payload, cd.compressed)
			bufpool.PutBytes(payload)
			if err != nil {
				return nil, err
			}
		}
		s, e := ownBlock(r.ID)
		out := make([]float32, e-s)
		copy(out, full[s:e])
		return out, nil
	}
	payload, err := g.recv(0)
	if err != nil {
		return nil, err
	}
	s, e := ownBlock(r.ID)
	out := make([]float32, e-s)
	if err := cd.decode(payload, out); err != nil {
		return nil, err
	}
	return out, nil
}

// hierPartial runs stages 1–3 generically: intraRS produces each member's
// node-reduced block, the blocks gather at the leader, and interAR reduces
// the node partials across leaders. Non-leaders return full == nil.
func hierPartial(r *cluster.Rank, data []float32, cd codec,
	intraRS func(g comm, data []float32) ([]float32, error),
	interAR func(g comm, data []float32) ([]float32, error)) (intra comm, full []float32, leader bool, err error) {
	intra, inter, leader := hierComms(r)
	block, err := intraRS(intra, data)
	if err != nil {
		return intra, nil, leader, err
	}
	partial, err := gatherNodePartial(intra, len(data), block, cd)
	if err != nil {
		return intra, nil, leader, err
	}
	if leader {
		full, err = interAR(inter, partial)
		if err != nil {
			return intra, nil, leader, err
		}
	}
	return intra, full, leader, nil
}

// ---------------------------------------------------------------------------
// Plain
// ---------------------------------------------------------------------------

// hierPartialPlain is hierPartial with both plain ring stages in place: the
// intra-node one in pooled scratch (the gather consumes its block before
// this returns), the leaders' inside the node partial the gather built.
func (c Collectives) hierPartialPlain(r *cluster.Rank, data []float32, cd codec) (comm, []float32, bool, error) {
	acc := bufpool.Float32s(len(data))
	defer bufpool.PutFloat32s(acc)
	return hierPartial(r, data, cd, func(g comm, data []float32) ([]float32, error) {
		r.Quiesce(func() { copy(acc, data) })
		return c.ringReducePlain(g, acc)
	}, c.allreducePlainInPlace)
}

// AllreduceHierPlain is the hierarchical allreduce for the Plain backend.
func (c Collectives) AllreduceHierPlain(r *cluster.Rank, data []float32) ([]float32, error) {
	cd := rawCodec(r)
	intra, full, leader, err := c.hierPartialPlain(r, data, cd)
	if err != nil {
		return nil, err
	}
	return bcastResult(intra, full, len(data), leader, cd)
}

// ReduceScatterHierPlain is the hierarchical reduce-scatter for the Plain
// backend: same as the allreduce through stage 3, then the leader
// scatters each member only its owned world block.
func (c Collectives) ReduceScatterHierPlain(r *cluster.Rank, data []float32) ([]float32, error) {
	cd := rawCodec(r)
	intra, full, _, err := c.hierPartialPlain(r, data, cd)
	if err != nil {
		return nil, err
	}
	return scatterOwnedBlocks(intra, full, len(data), cd)
}

// ---------------------------------------------------------------------------
// C-Coll
// ---------------------------------------------------------------------------

// AllreduceHierCColl is the hierarchical C-Coll allreduce: DOC rings at
// both levels, compressed stage boundaries.
func (c Collectives) AllreduceHierCColl(r *cluster.Rank, data []float32) ([]float32, error) {
	cd := c.compressedCodec(r)
	intra, full, leader, err := hierPartial(r, data, cd, c.reduceScatterCCollG, c.allreduceCCollG)
	if err != nil {
		return nil, err
	}
	return bcastResult(intra, full, len(data), leader, cd)
}

// ReduceScatterHierCColl is the hierarchical C-Coll reduce-scatter.
func (c Collectives) ReduceScatterHierCColl(r *cluster.Rank, data []float32) ([]float32, error) {
	cd := c.compressedCodec(r)
	intra, full, _, err := hierPartial(r, data, cd, c.reduceScatterCCollG, c.allreduceCCollG)
	if err != nil {
		return nil, err
	}
	return scatterOwnedBlocks(intra, full, len(data), cd)
}

// ---------------------------------------------------------------------------
// hZCCL
// ---------------------------------------------------------------------------

// hierHZStages adapts the homomorphic ring stages to hierPartial's
// signature, accumulating hzdyn stats across both levels.
func (c Collectives) hierHZStages(stats *hzdyn.Stats) (
	intraRS func(g comm, data []float32) ([]float32, error),
	interAR func(g comm, data []float32) ([]float32, error)) {
	intraRS = func(g comm, data []float32) ([]float32, error) {
		block, st, err := c.reduceScatterHZG(g, data)
		if err != nil {
			return nil, err
		}
		stats.Accumulate(*st)
		return block, nil
	}
	interAR = func(g comm, data []float32) ([]float32, error) {
		full, st, err := c.allreduceHZG(g, data)
		if err != nil {
			return nil, err
		}
		stats.Accumulate(*st)
		return full, nil
	}
	return intraRS, interAR
}

// AllreduceHierHZ is the hierarchical hZCCL allreduce: the intra-node
// reduce-scatter and the inter-node leader allreduce both run the
// homomorphic ring, and the vector crosses the two stage boundaries
// compressed.
func (c Collectives) AllreduceHierHZ(r *cluster.Rank, data []float32) ([]float32, *hzdyn.Stats, error) {
	stats := &hzdyn.Stats{}
	cd := c.compressedCodec(r)
	intraRS, interAR := c.hierHZStages(stats)
	intra, full, leader, err := hierPartial(r, data, cd, intraRS, interAR)
	if err != nil {
		return nil, nil, err
	}
	out, err := bcastResult(intra, full, len(data), leader, cd)
	if err != nil {
		return nil, nil, err
	}
	return out, stats, nil
}

// ReduceScatterHierHZ is the hierarchical hZCCL reduce-scatter.
func (c Collectives) ReduceScatterHierHZ(r *cluster.Rank, data []float32) ([]float32, *hzdyn.Stats, error) {
	stats := &hzdyn.Stats{}
	cd := c.compressedCodec(r)
	intraRS, interAR := c.hierHZStages(stats)
	intra, full, _, err := hierPartial(r, data, cd, intraRS, interAR)
	if err != nil {
		return nil, nil, err
	}
	out, err := scatterOwnedBlocks(intra, full, len(data), cd)
	if err != nil {
		return nil, nil, err
	}
	return out, stats, nil
}
