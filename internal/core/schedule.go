package core

import (
	"fmt"
	"math/bits"

	"hzccl/internal/bufpool"
)

// The schedules: who sends which blocks of a partial result to whom, and
// when. Each is written once, over a comm (so it runs over the world, one
// node's members or the node leaders alike) and a partial (so it runs in
// every flavor); none of them knows which flavor it is moving.

// pass sends payload — the partial's last wire or final — to `to`, lets the
// partial use the time it is in flight, and receives from `from`.
func pass(g comm, p partial, to int, payload []byte, from int) ([]byte, error) {
	if err := g.send(to, payload, p.compressed()); err != nil {
		return nil, err
	}
	if err := p.sent(); err != nil {
		return nil, err
	}
	return g.recv(from)
}

// swap is one reducing exchange: send this rank's partial sums of blocks
// [slo, shi) to `to`, and reduce what `from` sends into blocks [rlo, rhi).
func swap(g comm, p partial, to, slo, shi, from, rlo, rhi int) error {
	payload, err := p.wire(slo, shi)
	if err != nil {
		return err
	}
	got, err := pass(g, p, to, payload, from)
	if err != nil {
		return err
	}
	return p.reduce(rlo, rhi, got)
}

// ringReduceScatter is the ring reduce-scatter over a partial of g.n()
// blocks: N−1 steps, each sending one block's partial sums to the next rank
// and reducing the previous rank's into the block before it. Afterwards
// block BlockOwned(g.id, N) is finished.
func ringReduceScatter(g comm, p partial) error {
	n := g.n()
	next, prev := (g.id+1)%n, (g.id-1+n)%n
	for step := 0; step < n-1; step++ {
		send, recv := (g.id-step+n)%n, (g.id-step-1+n)%n
		if err := swap(g, p, next, send, send+1, prev, recv, recv+1); err != nil {
			return err
		}
	}
	return nil
}

// ringAllgather moves every rank's payload around the ring: own leaves at
// step 0 and each later step forwards what the last one received. store sees
// every received payload with the local id it originated from and must keep
// it intact until store is called again.
func ringAllgather(g comm, own []byte, compressed bool, store func(origin int, got []byte) error) error {
	n := g.n()
	next, prev := (g.id+1)%n, (g.id-1+n)%n
	cur := own
	for step := 0; step < n-1; step++ {
		got, err := g.sendRecv(next, cur, prev, compressed)
		if err != nil {
			return err
		}
		if err := store((g.id-step-1+n)%n, got); err != nil {
			return err
		}
		cur = got
	}
	return nil
}

// ringAllgatherBlocks completes a ring reduce-scatter into an allreduce:
// every rank's finished block travels the ring and is adopted everywhere.
func ringAllgatherBlocks(g comm, p partial) error {
	n := g.n()
	own := BlockOwned(g.id, n)
	payload, err := p.final(own, own+1)
	if err != nil {
		return err
	}
	return ringAllgather(g, payload, p.compressed(), func(origin int, got []byte) error {
		k := BlockOwned(origin, n)
		return p.adopt(k, k+1, got)
	})
}

// activeRanks computes the power-of-two active set of the standard fold: p2
// active ranks, and this rank's id in the active space (-1 if folded away).
func activeRanks(rank, n int) (p2, newrank int) {
	p2 = 1 << uint(bits.Len(uint(n))-1)
	r := n - p2
	switch {
	case rank < 2*r && rank%2 == 0:
		return p2, -1
	case rank < 2*r:
		return p2, rank / 2
	default:
		return p2, rank - r
	}
}

// oldRank inverts activeRanks for message addressing.
func oldRank(newrank, n, p2 int) int {
	r := n - p2
	if newrank < r {
		return 2*newrank + 1
	}
	return newrank + r
}

// folded runs a power-of-two schedule on any rank count: with p2 the largest
// power of two ≤ N, each even rank of the first 2·(N−p2) hands its whole
// partial to its odd neighbour, sits the rounds out and gets the finished
// vector back. rounds runs on the p2 active ranks, of which this one is
// newrank.
func folded(g comm, p partial, nb int, rounds func(g comm, p partial, p2, newrank int) error) ([]float32, error) {
	n := g.n()
	p2, newrank := activeRanks(g.id, n)
	folds := g.id < 2*(n-p2)
	if folds && g.id%2 == 0 {
		payload, err := p.wire(0, nb)
		if err != nil {
			return nil, err
		}
		got, err := pass(g, p, g.id+1, payload, g.id+1)
		if err != nil {
			return nil, err
		}
		return p.refold(got)
	}
	if folds {
		got, err := g.recv(g.id - 1)
		if err != nil {
			return nil, err
		}
		if err := p.reduce(0, nb, got); err != nil {
			return nil, err
		}
	}
	if err := rounds(g, p, p2, newrank); err != nil {
		return nil, err
	}
	if folds {
		payload, compressed, err := p.unfold()
		if err != nil {
			return nil, err
		}
		if err := g.send(g.id-1, payload, compressed); err != nil {
			return nil, err
		}
		if err := p.sent(); err != nil {
			return nil, err
		}
	}
	return p.result()
}

// doublingRounds is recursive doubling over a one-block partial: log₂(p2)
// rounds, each exchanging the whole partial vector with the partner at a
// doubling distance. Latency-optimal, so it wins the small-message regime
// where the ring's 2(N−1) message latencies dominate.
func doublingRounds(g comm, p partial, p2, newrank int) error {
	for dist := 1; dist < p2; dist <<= 1 {
		peer := oldRank(newrank^dist, g.n(), p2)
		if err := swap(g, p, peer, 0, 1, peer, 0, 1); err != nil {
			return err
		}
	}
	return nil
}

// halvingDoublingRounds is Rabenseifner's allreduce over a partial of p2
// blocks: a recursive-halving reduce-scatter — each round keeps one half of
// the blocks still held, sends the partner the other and reduces the
// partner's — then a recursive-doubling allgather that retraces it with
// finished blocks. log₂(p2) rounds each way at near-ring bandwidth.
func halvingDoublingRounds(g comm, p partial, p2, newrank int) error {
	lo, hi := 0, p2 // the blocks this rank is still reducing
	for dist := p2 / 2; dist >= 1; dist /= 2 {
		peer := oldRank(newrank^dist, g.n(), p2)
		mid := (lo + hi) / 2
		keepLo, keepHi, sendLo, sendHi := lo, mid, mid, hi
		if newrank&dist != 0 {
			keepLo, keepHi, sendLo, sendHi = mid, hi, lo, mid
		}
		if err := swap(g, p, peer, sendLo, sendHi, peer, keepLo, keepHi); err != nil {
			return err
		}
		lo, hi = keepLo, keepHi
	}
	for dist := 1; dist < p2; dist *= 2 { // [lo, hi) is now what is finished here
		peer := oldRank(newrank^dist, g.n(), p2)
		payload, err := p.final(lo, hi)
		if err != nil {
			return err
		}
		got, err := pass(g, p, peer, payload, peer)
		if err != nil {
			return err
		}
		// The partner holds the mirrored segment at this distance.
		plo, phi := hi, hi+(hi-lo)
		if newrank&dist != 0 {
			plo, phi = lo-(hi-lo), lo
		}
		if err := p.adopt(plo, phi, got); err != nil {
			return err
		}
		lo, hi = min(lo, plo), max(hi, phi)
	}
	return nil
}

// vrank maps a rank into the rotated coordinate system where `root` is 0,
// the standard trick for rooted binomial-tree collectives.
func vrank(rank, root, n int) int { return (rank - root + n) % n }

func unvrank(v, root, n int) int { return (v + root) % n }

// lowbitFloor returns the value of v's lowest set bit, or a large sentinel
// for v == 0 (the root has children at every level).
func lowbitFloor(v int) int {
	if v == 0 {
		return 1 << 30
	}
	return v & -v
}

// treeChildren lists, lowest level first, the local ids of the children of
// g.id in the binomial tree rooted at root; parent is -1 at the root.
func treeChildren(g comm, root int) (children []int, parent int) {
	n := g.n()
	v := vrank(g.id, root, n)
	for mask := 1; mask < n && mask < lowbitFloor(v); mask <<= 1 {
		if child := v | mask; child < n {
			children = append(children, unvrank(child, root, n))
		}
	}
	if v == 0 {
		return children, -1
	}
	return children, unvrank(v&(v-1), root, n)
}

// treeReduce sums one-block partials up the binomial tree rooted at root:
// every rank reduces its children's partial sums into its own and, unless it
// is the root — which then holds the finished vector — sends the result to
// its parent.
func treeReduce(g comm, p partial, root int) error {
	children, parent := treeChildren(g, root)
	for _, child := range children {
		got, err := g.recv(child)
		if err != nil {
			return err
		}
		if err := p.reduce(0, 1, got); err != nil {
			return err
		}
	}
	if parent < 0 {
		return nil
	}
	payload, err := p.wire(0, 1)
	if err != nil {
		return err
	}
	if err := g.send(parent, payload, p.compressed()); err != nil {
		return err
	}
	return p.sent()
}

// frameBlobs packs a list of byte slices into one message, in a bufpool
// buffer the caller owns.
func frameBlobs(blobs [][]byte) []byte {
	size := 4
	for _, b := range blobs {
		size += 4 + len(b)
	}
	out := bufpool.Bytes(size)[:0]
	out = appendU32(out, uint32(len(blobs)))
	for _, b := range blobs {
		out = appendU32(out, uint32(len(b)))
		out = append(out, b...)
	}
	return out
}

// unframeBlobsN unframes a payload of exactly want blobs; they alias msg.
func unframeBlobsN(msg []byte, want int) ([][]byte, error) {
	if len(msg) < 4 {
		return nil, fmt.Errorf("core: short blob frame")
	}
	if count := int(readU32(msg)); count != want {
		return nil, fmt.Errorf("core: got %d framed blobs, want %d", count, want)
	}
	out := make([][]byte, 0, want)
	o := 4
	for k := 0; k < want; k++ {
		if len(msg) < o+4 {
			return nil, fmt.Errorf("core: truncated blob frame")
		}
		l := int(readU32(msg[o:]))
		o += 4
		if len(msg) < o+l {
			return nil, fmt.Errorf("core: truncated blob payload")
		}
		out = append(out, msg[o:o+l])
		o += l
	}
	return out, nil
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func readU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
