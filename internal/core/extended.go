package core

import (
	"fmt"

	"hzccl/internal/bufpool"
	"hzccl/internal/cluster"
	"hzccl/internal/fzlight"
	"hzccl/internal/hzdyn"
)

// This file extends the framework beyond the paper's two showcase
// operations to the rest of the collective family the C-Coll substrate
// (Huang et al., IPDPS'24) covers: Broadcast, Reduce, Gather, Allgather
// and Alltoall. Data-movement collectives gain compression by compressing
// once at the source and decompressing once at each sink; the computation
// collective (Reduce) additionally gains the homomorphic treatment, with
// partial sums travelling in compressed form up a binomial tree.

// vrank maps a rank into the rotated coordinate system where `root` is 0,
// the standard trick for rooted binomial-tree collectives.
func vrank(rank, root, n int) int { return (rank - root + n) % n }

func unvrank(v, root, n int) int { return (v + root) % n }

// BroadcastPlain sends root's data to every rank through a binomial tree
// (the MPICH algorithm for mid-sized messages) and returns each rank's
// copy. Non-root ranks pass their (ignored) local buffer for its length.
func (c Collectives) BroadcastPlain(r *cluster.Rank, data []float32, root int) ([]float32, error) {
	g := world(r)
	payload, err := bcastBytesG(g, func() []byte { return g.staged(data) }, root)
	if err != nil {
		return nil, err
	}
	// The root decodes (and so recycles) its staged bytes like everyone else.
	out := make([]float32, len(data))
	if err := g.storeInto(out, payload, "broadcast root", root); err != nil {
		return nil, err
	}
	return out, nil
}

// BroadcastCompressed is the compression-accelerated broadcast: the root
// compresses once (CPR), compressed bytes traverse the tree, and every
// non-root rank decompresses once (DPR) — the C-Coll broadcast design.
func (c Collectives) BroadcastCompressed(r *cluster.Rank, data []float32, root int) ([]float32, error) {
	opt := c.Opt
	var comp []byte
	var cerr error
	payload, err := bcastBytesG(world(r), func() []byte {
		c.work(r, cluster.CatCPR, 4*len(data), func() {
			comp, cerr = fzlight.Compress(data, opt.params())
		})
		if cerr != nil {
			return nil
		}
		return comp
	}, root)
	if cerr != nil {
		return nil, cerr
	}
	if err != nil {
		return nil, err
	}
	if r.ID == root {
		if comp == nil {
			return nil, fmt.Errorf("core: broadcast root compression failed")
		}
		out := make([]float32, len(data))
		copy(out, data)
		return out, nil
	}
	var out []float32
	var derr error
	h, err := fzlight.ParseHeader(payload)
	if err != nil {
		return nil, err
	}
	c.work(r, cluster.CatDPR, 4*h.DataLen, func() {
		out, derr = fzlight.Decompress(payload)
	})
	if derr != nil {
		return nil, derr
	}
	return out, nil
}

// bcastBytesG moves one opaque payload from root (a group-local id, the
// only rank makePayload runs on) to every rank of g along a binomial tree.
// The hierarchical collectives run it over one node with the leader as root.
func bcastBytesG(g comm, makePayload func() []byte, root int) ([]byte, error) {
	n := g.n()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("core: broadcast root %d out of range", root)
	}
	var payload []byte
	if g.id == root {
		payload = makePayload()
		if payload == nil && n > 1 {
			return nil, fmt.Errorf("core: broadcast payload construction failed")
		}
	}
	if n == 1 {
		return payload, nil
	}
	v := vrank(g.id, root, n)
	// Receive from the parent: v with its lowest set bit cleared (the
	// MPICH binomial schedule).
	if v != 0 {
		parent := v & (v - 1)
		got, err := g.rawRecv(unvrank(parent, root, n))
		if err != nil {
			return nil, err
		}
		payload = got
	}
	// Forward to children v|mask for every mask below v's lowest set bit.
	for mask := nextPow2(n) >> 1; mask > 0; mask >>= 1 {
		child := v | mask
		if mask < lowbitFloor(v) && child < n {
			if err := g.rawSend(unvrank(child, root, n), payload); err != nil {
				return nil, err
			}
		}
	}
	return payload, nil
}

// lowbitFloor returns the value of v's lowest set bit, or a large sentinel
// for v == 0 (the root forwards to every level).
func lowbitFloor(v int) int {
	if v == 0 {
		return 1 << 30
	}
	return v & -v
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// GatherPlain collects every rank's data at root (concatenated in rank
// order). Only the root receives a non-nil result.
func (c Collectives) GatherPlain(r *cluster.Rank, data []float32, root int) ([][]float32, error) {
	g := world(r)
	own := g.staged(data)
	defer bufpool.PutBytes(own) // referenced by payloads until decoded
	payloads, err := c.gatherBytes(r, own, root)
	if err != nil || payloads == nil {
		return nil, err
	}
	out := make([][]float32, len(payloads))
	for i, p := range payloads {
		// Contributions may differ in length; each must be whole floats.
		out[i] = make([]float32, len(p)/4)
		if err := g.decodeInto(out[i], p, "gather origin", i); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// GatherCompressed compresses each rank's contribution once (CPR at the
// leaf) and decompresses everything at the root (N−1 DPR).
func (c Collectives) GatherCompressed(r *cluster.Rank, data []float32, root int) ([][]float32, error) {
	opt := c.Opt
	var comp []byte
	var cerr error
	c.work(r, cluster.CatCPR, 4*len(data), func() {
		comp, cerr = fzlight.Compress(data, opt.params())
	})
	if cerr != nil {
		return nil, cerr
	}
	payloads, err := c.gatherBytes(r, comp, root)
	if err != nil || payloads == nil {
		return nil, err
	}
	out := make([][]float32, len(payloads))
	for i, p := range payloads {
		if i == r.ID {
			own := make([]float32, len(data))
			copy(own, data)
			out[i] = own
			continue
		}
		h, err := fzlight.ParseHeader(p)
		if err != nil {
			return nil, err
		}
		dst := make([]float32, h.DataLen)
		var derr error
		c.work(r, cluster.CatDPR, 4*h.DataLen, func() {
			derr = fzlight.DecompressInto(p, dst)
		})
		if derr != nil {
			return nil, derr
		}
		out[i] = dst
	}
	return out, nil
}

// gatherBytes funnels one payload per rank to the root along a binomial
// tree (children fold their subtree's payloads into the parent). Returns
// payloads indexed by origin rank at the root, nil elsewhere.
func (c Collectives) gatherBytes(r *cluster.Rank, own []byte, root int) ([][]byte, error) {
	n := r.N
	if root < 0 || root >= n {
		return nil, fmt.Errorf("core: gather root %d out of range", root)
	}
	collected := map[int][]byte{r.ID: own}
	if n > 1 {
		v := vrank(r.ID, root, n)
		// Receive from children (low bits below our lowest set bit).
		for mask := 1; mask < n; mask <<= 1 {
			if mask >= lowbitFloor(v) {
				break
			}
			child := v | mask
			if child >= n {
				continue
			}
			blob, err := r.Recv(unvrank(child, root, n))
			if err != nil {
				return nil, err
			}
			if err := decodeGatherBlob(blob, collected); err != nil {
				return nil, err
			}
		}
		// Send the folded subtree to the parent.
		if v != 0 {
			parent := v & (v - 1)
			if err := r.Send(unvrank(parent, root, n), encodeGatherBlob(collected)); err != nil {
				return nil, err
			}
			return nil, nil
		}
	}
	out := make([][]byte, n)
	for origin, p := range collected {
		out[origin] = p
	}
	return out, nil
}

// encodeGatherBlob packs {origin, payload} pairs into one message.
func encodeGatherBlob(m map[int][]byte) []byte {
	size := 4
	for _, p := range m {
		size += 8 + len(p)
	}
	out := make([]byte, 0, size)
	out = appendU32(out, uint32(len(m)))
	for origin, p := range m {
		out = appendU32(out, uint32(origin))
		out = appendU32(out, uint32(len(p)))
		out = append(out, p...)
	}
	return out
}

func decodeGatherBlob(blob []byte, into map[int][]byte) error {
	if len(blob) < 4 {
		return fmt.Errorf("core: short gather blob")
	}
	count := int(readU32(blob))
	o := 4
	for k := 0; k < count; k++ {
		if len(blob) < o+8 {
			return fmt.Errorf("core: truncated gather blob")
		}
		origin := int(readU32(blob[o:]))
		plen := int(readU32(blob[o+4:]))
		o += 8
		if len(blob) < o+plen {
			return fmt.Errorf("core: truncated gather payload")
		}
		into[origin] = blob[o : o+plen]
		o += plen
	}
	return nil
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func readU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// AllgatherPlain gives every rank every other rank's data (rank-indexed).
func (c Collectives) AllgatherPlain(r *cluster.Rank, data []float32) ([][]float32, error) {
	g := world(r)
	out := make([][]float32, r.N)
	out[r.ID] = make([]float32, len(data))
	copy(out[r.ID], data)
	err := g.ringAllgatherPlain(data, func(origin int, got []byte) error {
		// Contributions may differ in length; each must be whole floats.
		out[origin] = make([]float32, len(got)/4)
		return g.decodeInto(out[origin], got, "allgather origin", origin)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AllgatherCompressed is the C-Coll allgather: compress once, ring the
// compressed bytes, decompress N−1 received chunks.
func (c Collectives) AllgatherCompressed(r *cluster.Rank, data []float32) ([][]float32, error) {
	opt := c.Opt
	var comp []byte
	var cerr error
	c.work(r, cluster.CatCPR, 4*len(data), func() {
		comp, cerr = fzlight.Compress(data, opt.params())
	})
	if cerr != nil {
		return nil, cerr
	}
	gathered, err := allgatherBytes(world(r), comp, true)
	if err != nil {
		return nil, err
	}
	out := make([][]float32, len(gathered))
	for i, p := range gathered {
		if i == r.ID {
			own := make([]float32, len(data))
			copy(own, data)
			out[i] = own
			continue
		}
		h, err := fzlight.ParseHeader(p)
		if err != nil {
			return nil, err
		}
		dst := make([]float32, h.DataLen)
		var derr error
		c.work(r, cluster.CatDPR, 4*h.DataLen, func() {
			derr = fzlight.DecompressInto(p, dst)
		})
		if derr != nil {
			return nil, derr
		}
		out[i] = dst
	}
	return out, nil
}

// ReducePlain sums data across ranks at the root via a binomial tree of
// raw partial sums. Only the root receives a non-nil result.
func (c Collectives) ReducePlain(r *cluster.Rank, data []float32, root int) ([]float32, error) {
	n := r.N
	if root < 0 || root >= n {
		return nil, fmt.Errorf("core: reduce root %d out of range", root)
	}
	g := world(r)
	acc := make([]float32, len(data))
	copy(acc, data)
	v := vrank(r.ID, root, n)
	for mask := 1; mask < n; mask <<= 1 {
		if mask >= lowbitFloor(v) {
			break
		}
		child := v | mask
		if child >= n {
			continue
		}
		got, err := r.Recv(unvrank(child, root, n))
		if err != nil {
			return nil, err
		}
		if err := c.reduceInto(g, acc, got, "reduce child", child); err != nil {
			return nil, err
		}
	}
	if v != 0 {
		parent := v & (v - 1)
		payload := g.staged(acc)
		err := r.Send(unvrank(parent, root, n), payload)
		bufpool.PutBytes(payload)
		return nil, err
	}
	return acc, nil
}

// ReduceHZ is the homomorphic rooted reduce: each rank compresses once,
// partial sums combine in compressed form at every tree level (HPR), and
// only the root decompresses — the rooted analogue of the paper's
// Reduce_scatter co-design, cost CPR + log2(N)·HPR + 1·DPR on the
// critical path.
func (c Collectives) ReduceHZ(r *cluster.Rank, data []float32, root int) ([]float32, *hzdyn.Stats, error) {
	n := r.N
	if root < 0 || root >= n {
		return nil, nil, fmt.Errorf("core: reduce root %d out of range", root)
	}
	stats := &hzdyn.Stats{}
	acc, cerr := c.compressPooled(r, data)
	if cerr != nil {
		return nil, nil, cerr
	}
	v := vrank(r.ID, root, n)
	for mask := 1; mask < n; mask <<= 1 {
		if mask >= lowbitFloor(v) {
			break
		}
		child := v | mask
		if child >= n {
			continue
		}
		got, err := r.Recv(unvrank(child, root, n))
		if err != nil {
			return nil, nil, err
		}
		if acc, err = c.addPooled(r, acc, got, len(data), stats); err != nil {
			return nil, nil, err
		}
		bufpool.PutBytes(got)
	}
	if v != 0 {
		parent := v & (v - 1)
		if err := r.Send(unvrank(parent, root, n), acc); err != nil {
			return nil, nil, err
		}
		bufpool.PutBytes(acc) // copied on send: dead here
		return nil, stats, nil
	}
	var out []float32
	var derr error
	c.work(r, cluster.CatDPR, 4*len(data), func() {
		out, derr = fzlight.Decompress(acc)
	})
	if derr != nil {
		return nil, nil, derr
	}
	bufpool.PutBytes(acc)
	return out, stats, nil
}

// AlltoallPlain performs the personalized exchange: rank i's block j goes
// to rank j. data must contain N equal blocks (BlockBounds layout);
// returns the N received blocks indexed by source rank.
func (c Collectives) AlltoallPlain(r *cluster.Rank, data []float32) ([][]float32, error) {
	return c.alltoall(r, data, false)
}

// AlltoallCompressed compresses each outgoing block (the online-compression
// point-to-point design the paper's related work covers).
func (c Collectives) AlltoallCompressed(r *cluster.Rank, data []float32) ([][]float32, error) {
	return c.alltoall(r, data, true)
}

func (c Collectives) alltoall(r *cluster.Rank, data []float32, compressed bool) ([][]float32, error) {
	n := r.N
	g := world(r)
	opt := c.Opt
	out := make([][]float32, n)
	// Own block.
	s, e := BlockBounds(len(data), n, r.ID)
	own := make([]float32, e-s)
	copy(own, data[s:e])
	out[r.ID] = own
	var raw []byte // the plain flavor's staging buffer
	defer func() { bufpool.PutBytes(raw) }()
	// Pairwise exchange schedule: in round k, exchange with rank^... for
	// non-power-of-two we use the simple (i+k) mod n pattern.
	for k := 1; k < n; k++ {
		to := (r.ID + k) % n
		from := (r.ID - k + n) % n
		bs, be := BlockBounds(len(data), n, to)
		var payload []byte
		if compressed {
			var cerr error
			c.work(r, cluster.CatCPR, 4*(be-bs), func() {
				payload, cerr = fzlight.Compress(data[bs:be], opt.params())
			})
			if cerr != nil {
				return nil, cerr
			}
		} else {
			payload = g.stage(&raw, data[bs:be])
		}
		got, err := g.sendRecv(to, payload, from, compressed)
		if err != nil {
			return nil, err
		}
		if compressed {
			h, err := fzlight.ParseHeader(got)
			if err != nil {
				return nil, err
			}
			dst := make([]float32, h.DataLen)
			var derr error
			c.work(r, cluster.CatDPR, 4*h.DataLen, func() {
				derr = fzlight.DecompressInto(got, dst)
			})
			if derr != nil {
				return nil, derr
			}
			out[from] = dst
		} else {
			// Every rank sends block r.ID of an equal-length vector.
			out[from] = make([]float32, e-s)
			if err := g.storeInto(out[from], got, "alltoall round", k); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
