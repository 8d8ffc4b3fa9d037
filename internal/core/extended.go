package core

import (
	"fmt"

	"hzccl/internal/bufpool"
	"hzccl/internal/cluster"
)

// This file extends the framework beyond the paper's two showcase
// operations to the data-movement collectives the C-Coll substrate (Huang
// et al., IPDPS'24) covers: Broadcast, Gather, Allgather and Alltoall. They
// gain compression by compressing once at the source and decompressing once
// at each sink, so each is written once over the flavor's codec — C-Coll
// and hZCCL, which differ only in how they reduce, move data identically.

// Broadcast sends root's data to every rank through a binomial tree (the
// MPICH algorithm for mid-sized messages) and returns each rank's copy:
// encoded once at the root, decoded once at every other rank. Non-root
// ranks pass their (ignored) local buffer for its length.
func (c Collectives) Broadcast(r *cluster.Rank, f Flavor, data []float32, root int) ([]float32, error) {
	cd := c.codec(world(r), f)
	payload, err := bcastBytes(cd.g, func() ([]byte, error) { return cd.encode(data) }, cd.compressed, root)
	if err != nil {
		return nil, err
	}
	defer bufpool.PutBytes(payload)
	if r.ID == root {
		return cd.g.clone(data), nil
	}
	return cd.decodeNew(payload, len(data))
}

// bcastBytes moves one opaque payload from root (a group-local id, the only
// rank makePayload runs on) to every rank of g along a binomial tree. The
// hierarchical collectives run it over one node with the leader as root.
func bcastBytes(g comm, makePayload func() ([]byte, error), compressed bool, root int) (payload []byte, err error) {
	if root < 0 || root >= g.n() {
		return nil, fmt.Errorf("core: broadcast root %d out of range", root)
	}
	children, parent := treeChildren(g, root)
	if parent < 0 {
		payload, err = makePayload()
	} else {
		payload, err = g.recv(parent)
	}
	// Forward to the highest subtree first (the MPICH binomial schedule).
	for i := len(children) - 1; i >= 0 && err == nil; i-- {
		err = g.send(children[i], payload, compressed)
	}
	return payload, err
}

// Gather collects every rank's data at root, indexed by origin rank: encoded
// once at each leaf, decoded at the root. Contributions may differ in
// length. Only the root receives a non-nil result.
func (c Collectives) Gather(r *cluster.Rank, f Flavor, data []float32, root int) ([][]float32, error) {
	cd := c.codec(world(r), f)
	own, err := cd.encode(data)
	if err != nil {
		return nil, err
	}
	defer bufpool.PutBytes(own) // referenced by the gather blobs until sent
	payloads, err := gatherBytes(cd.g, own, cd.compressed, root)
	if err != nil || payloads == nil {
		return nil, err
	}
	return cd.decodeAll(payloads, r.ID, data)
}

// decodeAll decodes one payload per rank, of any lengths — except this
// rank's own, which never passed through the codec.
func (cd codec) decodeAll(payloads [][]byte, self int, own []float32) (out [][]float32, err error) {
	out = make([][]float32, len(payloads))
	for i, p := range payloads {
		if i == self {
			out[i] = cd.g.clone(own)
		} else if out[i], err = cd.decodeNew(p, -1); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// gatherBytes funnels one payload per rank to the root along a binomial
// tree (children fold their subtree's payloads into the parent). Returns
// payloads indexed by origin rank at the root, nil elsewhere.
func gatherBytes(g comm, own []byte, compressed bool, root int) ([][]byte, error) {
	if root < 0 || root >= g.n() {
		return nil, fmt.Errorf("core: gather root %d out of range", root)
	}
	collected := map[int][]byte{g.id: own}
	children, parent := treeChildren(g, root)
	for _, child := range children {
		blob, err := g.recv(child)
		if err != nil {
			return nil, err
		}
		if err := decodeGatherBlob(blob, collected); err != nil {
			return nil, err
		}
	}
	if parent >= 0 {
		return nil, g.send(parent, encodeGatherBlob(collected), compressed)
	}
	out := make([][]byte, g.n())
	for origin, p := range collected {
		if origin < 0 || origin >= len(out) {
			return nil, fmt.Errorf("core: gather blob names origin %d of %d", origin, len(out))
		}
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

// Allgather gives every rank every rank's data, indexed by origin rank:
// encoded once, the payloads ring, and each rank decodes the N−1 it
// received once the ring is done. Contributions may differ in length.
func (c Collectives) Allgather(r *cluster.Rank, f Flavor, data []float32) ([][]float32, error) {
	cd := c.codec(world(r), f)
	own, err := cd.encode(data)
	if err != nil {
		return nil, err
	}
	payloads := make([][]byte, r.N)
	payloads[r.ID] = own
	err = ringAllgather(cd.g, own, cd.compressed, func(origin int, got []byte) error {
		payloads[origin] = got
		return nil
	})
	if err != nil {
		return nil, err
	}
	out, err := cd.decodeAll(payloads, r.ID, data)
	for _, p := range payloads {
		bufpool.PutBytes(p) // whole buffers all: this rank's own and the ring's
	}
	return out, err
}

// Alltoall performs the personalized exchange: rank i's block j goes to
// rank j, each block encoded on its own (the online-compression
// point-to-point design the paper's related work covers). data must contain
// N equal blocks (BlockBounds layout); returns the N received blocks indexed
// by source rank.
func (c Collectives) Alltoall(r *cluster.Rank, f Flavor, data []float32) ([][]float32, error) {
	n := r.N
	g := world(r)
	cd := c.codec(g, f)
	out := make([][]float32, n)
	s, e := BlockBounds(len(data), n, r.ID)
	out[r.ID] = g.clone(data[s:e])
	// Pairwise exchange: in round k, send to rank+k and receive from rank−k.
	for k := 1; k < n; k++ {
		to, from := (r.ID+k)%n, (r.ID-k+n)%n
		bs, be := BlockBounds(len(data), n, to)
		payload, err := cd.encode(data[bs:be])
		if err != nil {
			return nil, err
		}
		got, err := g.sendRecv(to, payload, from, cd.compressed)
		bufpool.PutBytes(payload)
		if err != nil {
			return nil, err
		}
		// Every rank sends block r.ID of an equal-length vector.
		if out[from], err = cd.decodeNew(got, e-s); err != nil {
			return nil, err
		}
		bufpool.PutBytes(got)
	}
	return out, nil
}
