package core

import (
	"fmt"

	"hzccl/internal/cluster"
	"hzccl/internal/hzdyn"
)

// The reductions' entry points — the repository's one flavor × algorithm
// dispatch. Each must be called from within a cluster rank body, by every
// rank, with equal-length data, and returns the pipeline statistics of the
// homomorphic reductions this rank performed (all zero for the other
// flavors).

// Allreduce sums data element-wise across all ranks and returns the full
// vector, bitwise identical on every rank. a must be a fixed algorithm.
func (c Collectives) Allreduce(r *cluster.Rank, f Flavor, a Algorithm, data []float32) ([]float32, *hzdyn.Stats, error) {
	return c.allreduce(world(r), r.Config().Topology, f, a, data)
}

// allreduce is Allreduce over the world g, grouped as topo says.
func (c Collectives) allreduce(g comm, topo *cluster.Topology, f Flavor, a Algorithm, data []float32) ([]float32, *hzdyn.Stats, error) {
	stats := &hzdyn.Stats{}
	var out []float32
	var err error
	switch a {
	case AlgoRing:
		out, err = c.allreduceRing(g, f, data, nil, stats)
	case AlgoRecursiveDoubling:
		out, err = c.allreduceFolded(g, f, data, 1, false, doublingRounds, stats)
	case AlgoRabenseifner:
		p2, _ := activeRanks(g.id, g.n())
		out, err = c.allreduceFolded(g, f, data, p2, true, halvingDoublingRounds, stats)
	case AlgoHierarchical:
		out, err = c.allreduceHier(g, topo, f, data, stats)
	default:
		err = fmt.Errorf("core: allreduce needs a fixed algorithm, got %v", a)
	}
	if err != nil {
		return nil, nil, err
	}
	return out, stats, nil
}

// allreduceRing is the ring allreduce: reduce-scatter, then allgather of the
// finished blocks. into, if non-nil, receives the result.
func (c Collectives) allreduceRing(g comm, f Flavor, data, into []float32, stats *hzdyn.Stats) ([]float32, error) {
	p, err := c.newPartial(f, blocks{g: g, nb: g.n(), full: true, into: into}, data, stats)
	if err != nil {
		return nil, err
	}
	defer p.close()
	if err := ringReduceScatter(g, p); err != nil {
		return nil, err
	}
	if err := ringAllgatherBlocks(g, p); err != nil {
		return nil, err
	}
	return p.result()
}

// allreduceFolded runs a power-of-two schedule over a partial of nb blocks.
// A lone rank has nothing to exchange and returns its input as is.
func (c Collectives) allreduceFolded(g comm, f Flavor, data []float32, nb int, framed bool,
	rounds func(comm, partial, int, int) error, stats *hzdyn.Stats) ([]float32, error) {
	if g.n() == 1 {
		return g.clone(data), nil
	}
	p, err := c.newPartial(f, blocks{g: g, nb: nb, framed: framed, full: true}, data, stats)
	if err != nil {
		return nil, err
	}
	defer p.close()
	return folded(g, p, nb, rounds)
}

// ReduceScatter sums data element-wise across all ranks and returns this
// rank's block of the result, block BlockOwned(rank, N) of N. Recursive
// doubling and Rabenseifner have no reduce-scatter of their own: they run
// the allreduce and slice the block out.
func (c Collectives) ReduceScatter(r *cluster.Rank, f Flavor, a Algorithm, data []float32) ([]float32, *hzdyn.Stats, error) {
	return c.reduceScatter(world(r), r.Config().Topology, f, a, data)
}

// reduceScatter is ReduceScatter over the world g, grouped as topo says.
func (c Collectives) reduceScatter(g comm, topo *cluster.Topology, f Flavor, a Algorithm, data []float32) ([]float32, *hzdyn.Stats, error) {
	stats := &hzdyn.Stats{}
	n, own := g.n(), BlockOwned(g.id, g.n())
	s, e := BlockBounds(len(data), n, own)
	out := g.vector(e - s)
	switch a {
	case AlgoRing:
		p, err := c.newPartial(f, blocks{g: g, nb: n}, data, stats)
		if err != nil {
			return nil, nil, err
		}
		defer p.close()
		if err := ringReduceScatter(g, p); err != nil {
			return nil, nil, err
		}
		if err := p.blockInto(own, out); err != nil {
			return nil, nil, err
		}
	case AlgoHierarchical:
		if err := c.reduceScatterHier(g, topo, f, data, out, stats); err != nil {
			return nil, nil, err
		}
	default:
		full, _, err := c.allreduce(g, topo, f, a, data)
		if err != nil {
			return nil, nil, err
		}
		g.copy(out, full[s:e])
	}
	return out, stats, nil
}

// Reduce sums data element-wise across ranks at root; every other rank gets
// nil. Plain partial sums and, for hZCCL, compressed ones (CPR + log₂N·HPR +
// one DPR on the critical path) climb a binomial tree. The DOC treatment of
// a rooted reduce degenerates to plain partial sums plus compressed links,
// so C-Coll runs its ring reduce-scatter and gathers the blocks at root.
func (c Collectives) Reduce(r *cluster.Rank, f Flavor, data []float32, root int) ([]float32, *hzdyn.Stats, error) {
	if root < 0 || root >= r.N {
		return nil, nil, fmt.Errorf("core: reduce root %d out of range", root)
	}
	stats := &hzdyn.Stats{}
	if f == FlavorCColl {
		out, err := c.reduceByBlocks(r, data, root)
		return out, stats, err
	}
	g := world(r)
	p, err := c.newPartial(f, blocks{g: g, nb: 1, full: r.ID == root}, data, stats)
	if err != nil {
		return nil, nil, err
	}
	defer p.close()
	if err := treeReduce(g, p, root); err != nil || r.ID != root {
		return nil, stats, err
	}
	out, err := p.result()
	return out, stats, err
}

// reduceByBlocks is the C-Coll rooted reduce: ring reduce-scatter, then a
// compressed gather of every rank's block at root.
func (c Collectives) reduceByBlocks(r *cluster.Rank, data []float32, root int) ([]float32, error) {
	block, _, err := c.ReduceScatter(r, FlavorCColl, AlgoRing, data)
	if err != nil {
		return nil, err
	}
	blocks, err := c.Gather(r, FlavorCColl, block, root)
	if err != nil || blocks == nil {
		return nil, err
	}
	out := make([]float32, len(data))
	for origin, vals := range blocks {
		k := BlockOwned(origin, r.N)
		s, e := BlockBounds(len(data), r.N, k)
		if len(vals) != e-s {
			return nil, fmt.Errorf("core: reduce gather block %d size mismatch", k)
		}
		copy(out[s:e], vals)
	}
	return out, nil
}
