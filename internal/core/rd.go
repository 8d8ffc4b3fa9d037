package core

import (
	"hzccl/internal/bufpool"
	"hzccl/internal/cluster"
	"hzccl/internal/fzlight"
	"hzccl/internal/hzdyn"
)

// Recursive-doubling allreduce: every rank keeps a full-length partial
// vector and exchanges it pairwise with partners at doubling distances —
// log₂(N) rounds of full-message traffic. Latency-optimal, so it wins
// the small-message regime where the ring's 2(N−1) message latencies
// dominate; the cost model (internal/costmodel) encodes the crossover.
//
// Non-power-of-two rank counts reuse the Rabenseifner fold (activeRanks):
// the first 2r ranks pair up so a power of two remains active, and folded
// ranks receive the final result during the unfold.
//
// Three flavours: Plain exchanges raw vectors and sums in float32;
// C-Coll compresses every outgoing vector and decompresses every incoming
// one (DOC per round); HZ compresses once and combines the compressed
// partial vectors homomorphically each round, decompressing only at the
// end.

// AllreducePlainRD is the uncompressed recursive-doubling allreduce.
func (c Collectives) AllreducePlainRD(r *cluster.Rank, data []float32) ([]float32, error) {
	g := world(r)
	return c.allreducePlainFolded(g, data, func(acc []float32, out *[]byte, p2, newrank int) error {
		for dist := 1; dist < p2; dist <<= 1 { // exchange full partial vectors
			partner := oldRank(newrank^dist, g.n(), p2)
			got, err := g.sendRecv(partner, g.stage(out, acc), partner, false)
			if err != nil {
				return err
			}
			if err := c.reduceInto(g, acc, got, "doubling distance", dist); err != nil {
				return err
			}
		}
		return nil
	})
}

// allreducePlainFolded is the frame plain recursive doubling and
// Rabenseifner share: copy data into the vector to return, run rounds on it
// over the power-of-two active set, and wrap that in the fold — each even
// rank of the first 2·(n−p2) hands its vector to its odd neighbour, sits
// the rounds out and gets the finished vector back.
func (c Collectives) allreducePlainFolded(g comm, data []float32,
	rounds func(acc []float32, out *[]byte, p2, newrank int) error) ([]float32, error) {
	n := g.n()
	acc := make([]float32, len(data))
	copy(acc, data)
	if n == 1 {
		return acc, nil
	}
	p2, newrank := activeRanks(g.id, n)
	folds := g.id < 2*(n-p2)
	var out []byte
	defer func() { bufpool.PutBytes(out) }()
	if folds && g.id%2 == 0 {
		if err := g.rawSend(g.id+1, g.stage(&out, acc)); err != nil {
			return nil, err
		}
		got, err := g.rawRecv(g.id + 1)
		if err != nil {
			return nil, err
		}
		if err := g.storeInto(acc, got, "unfold", 0); err != nil {
			return nil, err
		}
		return acc, nil
	}
	if folds {
		got, err := g.rawRecv(g.id - 1)
		if err != nil {
			return nil, err
		}
		if err := c.reduceInto(g, acc, got, "fold", 0); err != nil {
			return nil, err
		}
	}
	if err := rounds(acc, &out, p2, newrank); err != nil {
		return nil, err
	}
	if folds {
		if err := g.rawSend(g.id-1, g.stage(&out, acc)); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// AllreduceCCollRD is the C-Coll (DOC) recursive-doubling allreduce:
// every round compresses the outgoing vector, decompresses the incoming
// one, and reduces in the raw domain. Both partners reduce in the
// *quantized* domain of what went on the wire — each rank decodes its own
// outgoing payload alongside the partner's, so a round produces
// dec(cₐ)+dec(c_b) on both sides. Float32 addition is commutative, which
// makes the result bitwise identical across ranks at every round: the
// allreduce replication contract survives compression, at the cost of one
// extra decompression per round.
func (c Collectives) AllreduceCCollRD(r *cluster.Rank, data []float32) ([]float32, error) {
	g := world(r)
	n := g.n()
	opt := c.Opt
	acc := make([]float32, len(data))
	copy(acc, data)
	if n == 1 {
		return acc, nil
	}
	p2, newrank := activeRanks(g.id, n)
	rem := n - p2

	compress := func(vals []float32) ([]byte, error) {
		var out []byte
		var cerr error
		c.work(r, cluster.CatCPR, 4*len(vals), func() {
			out, cerr = fzlight.Compress(vals, opt.params())
		})
		return out, cerr
	}
	decompressInto := func(blob []byte, dst []float32) error {
		var derr error
		c.work(r, cluster.CatDPR, 4*len(dst), func() {
			derr = fzlight.DecompressInto(blob, dst)
		})
		return derr
	}

	if g.id < 2*rem {
		if g.id%2 == 0 {
			comp, err := compress(acc)
			if err != nil {
				return nil, err
			}
			if err := g.rawSend(g.id+1, comp); err != nil {
				return nil, err
			}
			got, err := g.rawRecv(g.id + 1)
			if err != nil {
				return nil, err
			}
			out := make([]float32, len(data))
			if err := decompressInto(got, out); err != nil {
				return nil, err
			}
			return out, nil
		}
		got, err := g.rawRecv(g.id - 1)
		if err != nil {
			return nil, err
		}
		vals := make([]float32, len(data))
		if err := decompressInto(got, vals); err != nil {
			return nil, err
		}
		c.work(r, cluster.CatCPT, 4*len(acc), func() { addInto(acc, vals) })
	}

	vals := make([]float32, len(data))
	for dist := 1; dist < p2; dist <<= 1 {
		partner := oldRank(newrank^dist, n, p2)
		comp, err := compress(acc)
		if err != nil {
			return nil, err
		}
		got, err := g.sendRecv(partner, comp, partner, true)
		if err != nil {
			return nil, err
		}
		// Re-anchor the accumulator to the quantized value the partner
		// received, so both sides of the exchange add the same two
		// operands (see AllreduceCCollRD).
		if err := decompressInto(comp, acc); err != nil {
			return nil, err
		}
		if err := decompressInto(got, vals); err != nil {
			return nil, err
		}
		c.work(r, cluster.CatCPT, 4*len(acc), func() { addInto(acc, vals) })
	}

	// Non-power-of-two unfold: the folded partner can only decode
	// dec(comp(final)), so *every* rank re-anchors to that same quantized
	// value — compress is deterministic on the (already identical) active
	// accumulators, hence the folded ranks decode the very bytes the
	// active ranks re-anchored to and replication holds world-wide.
	if rem > 0 {
		comp, err := compress(acc)
		if err != nil {
			return nil, err
		}
		if err := decompressInto(comp, acc); err != nil {
			return nil, err
		}
		if g.id < 2*rem && g.id%2 == 1 {
			if err := g.rawSend(g.id-1, comp); err != nil {
				return nil, err
			}
		}
	}
	return acc, nil
}

// AllreduceHZRD is the homomorphic recursive-doubling allreduce: the
// partial vector is compressed once, every round exchanges compressed
// partials and combines them with the homomorphic add, and the result
// decompresses once at the end — CPR + log₂(N)·HPR + DPR on the critical
// path.
func (c Collectives) AllreduceHZRD(r *cluster.Rank, data []float32) ([]float32, *hzdyn.Stats, error) {
	g := world(r)
	n := g.n()
	stats := &hzdyn.Stats{}
	if n == 1 {
		out := make([]float32, len(data))
		copy(out, data)
		return out, stats, nil
	}
	p2, newrank := activeRanks(g.id, n)
	rem := n - p2

	acc, cerr := c.compressPooled(r, data)
	if cerr != nil {
		return nil, nil, cerr
	}
	homAdd := func(got []byte) (err error) {
		if acc, err = c.addPooled(r, acc, got, len(data), stats); err == nil {
			bufpool.PutBytes(got)
		}
		return err
	}
	decompress := func(blob []byte) ([]float32, error) {
		var out []float32
		var derr error
		c.work(r, cluster.CatDPR, 4*len(data), func() {
			out, derr = fzlight.Decompress(blob)
		})
		return out, derr
	}

	// Fold on compressed vectors.
	if g.id < 2*rem {
		if g.id%2 == 0 {
			if err := g.rawSend(g.id+1, acc); err != nil {
				return nil, nil, err
			}
			bufpool.PutBytes(acc) // copied on send: dead here
			got, err := g.rawRecv(g.id + 1)
			if err != nil {
				return nil, nil, err
			}
			out, err := decompress(got)
			if err != nil {
				return nil, nil, err
			}
			bufpool.PutBytes(got)
			return out, stats, nil
		}
		got, err := g.rawRecv(g.id - 1)
		if err != nil {
			return nil, nil, err
		}
		if err := homAdd(got); err != nil {
			return nil, nil, err
		}
	}

	// Doubling rounds on compressed partial vectors.
	for dist := 1; dist < p2; dist <<= 1 {
		partner := oldRank(newrank^dist, n, p2)
		got, err := g.sendRecv(partner, acc, partner, true)
		if err != nil {
			return nil, nil, err
		}
		if err := homAdd(got); err != nil {
			return nil, nil, err
		}
	}

	// Unfold ships the compressed final vector; the folded partner pays
	// its own DPR.
	if g.id < 2*rem && g.id%2 == 1 {
		if err := g.rawSend(g.id-1, acc); err != nil {
			return nil, nil, err
		}
	}
	out, err := decompress(acc)
	if err != nil {
		return nil, nil, err
	}
	bufpool.PutBytes(acc)
	return out, stats, nil
}
