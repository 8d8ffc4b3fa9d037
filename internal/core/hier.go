package core

import (
	"fmt"

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
// Stages 1 and 3 are the flavor's own ring over a sub-communicator. The
// stage boundaries 2 and 4 move finished float blocks through the flavor's
// codec, so compression crosses them honestly: CPR at the producer, DPR at
// the consumer — for hZCCL too, which decompresses its stage-1 block and
// recompresses it for the leader.

// codec is how whole float vectors cross the fabric outside a reduction:
// raw little-endian bits for the plain flavor, one fZ-light container (CPR
// to encode, DPR to decode, charged to g's rank) for the other two. The
// hierarchical stage boundaries and the data-movement collectives of
// extended.go are written over it.
type codec struct {
	c Collectives
	g comm
	// compressed also labels payloads for the wire-byte telemetry split.
	compressed bool
}

func (c Collectives) codec(g comm, f Flavor) codec {
	return codec{c: c, g: g, compressed: f != FlavorPlain}
}

// encode returns vals' payload, in a bufpool buffer the caller owns.
func (cd codec) encode(vals []float32) ([]byte, error) {
	if cd.compressed {
		return cd.c.compressPooled(cd.g, vals)
	}
	return cd.g.staged(vals), nil
}

// decode fills dst from payload, which stays the caller's. A raw payload
// must be exactly dst's size.
func (cd codec) decode(payload []byte, dst []float32) error {
	if cd.compressed {
		return cd.c.decompressInto(cd.g, payload, dst)
	}
	return cd.g.decodeInto(dst, payload, "decoding payload", 0)
}

// decodeNew decodes payload into a fresh slice. A container says how many
// floats it holds; a raw payload holds want of them, or with want < 0
// however many whole floats it has (decode rejects a ragged one).
func (cd codec) decodeNew(payload []byte, want int) ([]float32, error) {
	if cd.compressed {
		h, err := fzlight.ParseHeader(payload)
		if err != nil {
			return nil, err
		}
		want = h.DataLen
	} else if want < 0 {
		want = len(payload) / 4
	}
	out := make([]float32, want)
	return out, cd.decode(payload, out)
}

// sendEncoded encodes vals, sends them to local id `to` and recycles the
// payload.
func (cd codec) sendEncoded(g comm, to int, vals []float32) error {
	payload, err := cd.encode(vals)
	if err != nil {
		return err
	}
	err = g.send(to, payload, cd.compressed)
	g.recycle(payload)
	return err
}

// recvDecoded receives dst's values from local id `from`.
func (cd codec) recvDecoded(g comm, from int, dst []float32) error {
	payload, err := g.recv(from)
	if err != nil {
		return err
	}
	if err := cd.decode(payload, dst); err != nil {
		return err
	}
	g.recycle(payload)
	return nil
}

// gatherNodePartial runs stage 2: every member sends the block its stage-1
// partial finished to the leader (local id 0), which assembles the full
// node-partial vector. Non-leader ranks return nil.
func gatherNodePartial(g comm, dataLen int, p partial, cd codec) ([]float32, error) {
	m := g.n()
	s, e := BlockBounds(dataLen, m, BlockOwned(g.id, m))
	if g.id != 0 {
		block := g.floats(e - s)
		defer g.recycleFloats(block)
		if err := p.blockInto(BlockOwned(g.id, m), block); err != nil {
			return nil, err
		}
		return nil, cd.sendEncoded(g, 0, block)
	}
	partial := g.vector(dataLen)
	if err := p.blockInto(BlockOwned(0, m), partial[s:e]); err != nil {
		return nil, err
	}
	for j := 1; j < m; j++ {
		bs, be := BlockBounds(dataLen, m, BlockOwned(j, m))
		if err := cd.recvDecoded(g, j, partial[bs:be]); err != nil {
			return nil, fmt.Errorf("core: leader %d assembling member %d block: %w", g.global(0), j, err)
		}
	}
	return partial, nil
}

// hierPartial runs stages 1–3: the intra-node ring reduce-scatter, the
// gather at the leader, and the leaders' ring allreduce, in place in the
// vector the gather built. Non-leaders return full == nil.
func (c Collectives) hierPartial(g comm, topo *cluster.Topology, f Flavor, data []float32, cd codec, stats *hzdyn.Stats) (intra comm, full []float32, err error) {
	// This rank's node and, for leaders, the inter-node leader group.
	topo = topo.Normalize(g.n())
	intra, _ = g.subcomm(topo.Members(topo.NodeOf(g.id)))
	inter, leader := g.subcomm(topo.Leaders())
	p, err := c.newPartial(f, blocks{g: intra, nb: intra.n()}, data, stats)
	if err != nil {
		return intra, nil, err
	}
	defer p.close()
	if err := ringReduceScatter(intra, p); err != nil {
		return intra, nil, err
	}
	partial, err := gatherNodePartial(intra, len(data), p, cd)
	if err != nil || !leader {
		return intra, nil, err
	}
	full, err = c.allreduceRing(inter, f, partial, partial, stats)
	return intra, full, err
}

// allreduceHier is the hierarchical allreduce; stage 4 broadcasts: the
// leader encodes the finished vector once, the binomial tree fans it out,
// members decode.
func (c Collectives) allreduceHier(g comm, topo *cluster.Topology, f Flavor, data []float32, stats *hzdyn.Stats) ([]float32, error) {
	cd := c.codec(g, f)
	intra, full, err := c.hierPartial(g, topo, f, data, cd, stats)
	if err != nil {
		return nil, err
	}
	payload, err := bcastBytes(intra, func() ([]byte, error) { return cd.encode(full) }, cd.compressed, 0)
	if err != nil {
		return nil, err
	}
	if full == nil {
		full = g.vector(len(data))
		err = cd.decode(payload, full)
	}
	g.recycle(payload)
	return full, err
}

// reduceScatterHier is the hierarchical reduce-scatter; stage 4 scatters:
// the leader sends each member only the block that member owns under the
// *world* reduce-scatter contract (block BlockOwned(globalRank, worldN)),
// instead of broadcasting the whole vector. out receives this rank's.
func (c Collectives) reduceScatterHier(g comm, topo *cluster.Topology, f Flavor, data, out []float32, stats *hzdyn.Stats) error {
	cd := c.codec(g, f)
	intra, full, err := c.hierPartial(g, topo, f, data, cd, stats)
	if err != nil {
		return err
	}
	if intra.id != 0 {
		return cd.recvDecoded(intra, 0, out)
	}
	ownBlock := func(global int) []float32 {
		s, e := BlockBounds(len(data), g.n(), BlockOwned(global, g.n()))
		return full[s:e]
	}
	for j := 1; j < intra.n(); j++ {
		if err := cd.sendEncoded(intra, j, ownBlock(intra.global(j))); err != nil {
			return err
		}
	}
	g.copy(out, ownBlock(g.id))
	return nil
}
