package core

import (
	"fmt"
	"math/bits"

	"hzccl/internal/bufpool"
	"hzccl/internal/cluster"
	"hzccl/internal/fzlight"
	"hzccl/internal/hzdyn"
)

// Rabenseifner's allreduce: recursive-halving reduce-scatter followed by
// recursive-doubling allgather — log₂(N) rounds instead of the ring's
// N−1, the algorithm MPI implementations prefer once latency matters.
// Provided in both the plain and the homomorphic flavour; the latter
// extends the paper's co-design to a second collective algorithm family
// (compressed blocks are exchanged and reduced homomorphically at every
// halving step, with decompression deferred to the very end).
//
// Non-power-of-two rank counts use the standard fold: the first 2r ranks
// pair up so 2^m ranks remain active; folded ranks receive the final
// result afterwards.

// activeRanks computes the power-of-two active set: p2 active ranks, and
// this rank's id in the active space (-1 if folded away).
func activeRanks(rank, n int) (p2, newrank int) {
	p2 = 1 << uint(bits.Len(uint(n))-1)
	if p2 > n {
		p2 >>= 1
	}
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

// unframeBlobsN unframes a payload and checks the blob count.
func unframeBlobsN(msg []byte, want int) ([][]byte, error) {
	out, err := unframeBlobs(msg)
	if err != nil {
		return nil, err
	}
	if len(out) != want {
		return nil, fmt.Errorf("core: got %d framed blobs, want %d", len(out), want)
	}
	return out, nil
}

// AllreducePlainRecursive is the uncompressed Rabenseifner allreduce.
func (c Collectives) AllreducePlainRecursive(r *cluster.Rank, data []float32) ([]float32, error) {
	g := world(r)
	return c.allreducePlainFolded(g, data, func(acc []float32, out *[]byte, p2, newrank int) error {
		// span returns acc's elements covering p2-blocks [lo, hi).
		span := func(lo, hi int) []float32 {
			s, _ := BlockBounds(len(acc), p2, lo)
			_, e := BlockBounds(len(acc), p2, hi-1)
			return acc[s:e]
		}

		// Recursive halving over p2 blocks.
		lo, hi := 0, p2
		for dist := p2 / 2; dist >= 1; dist /= 2 {
			partner := oldRank(newrank^dist, g.n(), p2)
			mid := (lo + hi) / 2
			var keepLo, keepHi, sendLo, sendHi int
			if newrank&dist == 0 {
				keepLo, keepHi, sendLo, sendHi = lo, mid, mid, hi
			} else {
				keepLo, keepHi, sendLo, sendHi = mid, hi, lo, mid
			}
			got, err := g.sendRecv(partner, g.stage(out, span(sendLo, sendHi)), partner, false)
			if err != nil {
				return err
			}
			if err := c.reduceInto(g, span(keepLo, keepHi), got, "halving distance", dist); err != nil {
				return err
			}
			lo, hi = keepLo, keepHi
		}

		// Recursive doubling allgather.
		for dist := 1; dist < p2; dist *= 2 {
			partner := oldRank(newrank^dist, g.n(), p2)
			got, err := g.sendRecv(partner, g.stage(out, span(lo, hi)), partner, false)
			if err != nil {
				return err
			}
			// The partner owns the mirrored segment at this distance.
			var plo, phi int
			if newrank&dist == 0 {
				plo, phi = lo+(hi-lo), hi+(hi-lo)
			} else {
				plo, phi = lo-(hi-lo), lo
			}
			if err := g.storeInto(span(plo, phi), got, "doubling distance", dist); err != nil {
				return err
			}
			if plo < lo {
				lo = plo
			} else {
				hi = phi
			}
		}
		return nil
	})
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

func unframeBlobs(msg []byte) ([][]byte, error) {
	if len(msg) < 4 {
		return nil, fmt.Errorf("core: short blob frame")
	}
	count := int(readU32(msg))
	if count < 0 || count > 1<<24 {
		return nil, fmt.Errorf("core: bad blob frame count %d", count)
	}
	out := make([][]byte, 0, count)
	o := 4
	for k := 0; k < count; k++ {
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

// AllreduceHZRecursive is the homomorphic Rabenseifner allreduce: each
// rank compresses its p2 blocks once, every halving step exchanges and
// homomorphically reduces compressed block sets, the doubling stage moves
// compressed blocks, and each rank decompresses the p2 blocks at the end.
func (c Collectives) AllreduceHZRecursive(r *cluster.Rank, data []float32) ([]float32, *hzdyn.Stats, error) {
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

	// Compress all p2 blocks once, each into a pooled buffer this rank
	// owns until it sends the block away or reduces it into a new one.
	cblocks := make([][]byte, p2)
	params := c.Opt.params()
	var cerr error
	c.work(r, cluster.CatCPR, 4*len(data), func() {
		for k := 0; k < p2 && cerr == nil; k++ {
			s, e := BlockBounds(len(data), p2, k)
			buf := bufpool.Bytes(fzlight.CompressBound(e-s, params))
			var m int
			m, cerr = fzlight.CompressInto(buf, data[s:e], params)
			cblocks[k] = buf[:m]
		}
	})
	if cerr != nil {
		return nil, nil, cerr
	}

	// reduceFrame adds the blobs of one received frame onto the blocks from
	// first on, then recycles the frame.
	reduceFrame := func(frame []byte, first, count int, phase string) error {
		blobs, err := unframeBlobs(frame)
		if err != nil {
			return err
		}
		if len(blobs) != count {
			return fmt.Errorf("core: %s frame has %d blocks, want %d", phase, len(blobs), count)
		}
		for i, blob := range blobs {
			k := first + i
			s, e := BlockBounds(len(data), p2, k)
			if cblocks[k], err = c.addPooled(r, cblocks[k], blob, e-s, stats); err != nil {
				return err
			}
		}
		bufpool.PutBytes(frame)
		return nil
	}
	// sendBlocks frames blocks [lo, hi) for partner and returns its frame.
	sendBlocks := func(partner, lo, hi int) ([]byte, error) {
		frame := frameBlobs(cblocks[lo:hi])
		got, err := g.sendRecv(partner, frame, partner, true)
		bufpool.PutBytes(frame) // copied on send: dead here
		return got, err
	}

	// Fold phase on compressed blocks.
	if g.id < 2*rem {
		if g.id%2 == 0 {
			frame := frameBlobs(cblocks)
			err := g.rawSend(g.id+1, frame)
			bufpool.PutBytes(frame) // copied on send, as are the blocks in it
			for _, blk := range cblocks {
				bufpool.PutBytes(blk)
			}
			if err != nil {
				return nil, nil, err
			}
			got, err := g.rawRecv(g.id + 1)
			if err != nil {
				return nil, nil, err
			}
			out := make([]float32, len(data))
			if err := g.storeInto(out, got, "unfold", 0); err != nil {
				return nil, nil, err
			}
			return out, stats, nil
		}
		got, err := g.rawRecv(g.id - 1)
		if err != nil {
			return nil, nil, err
		}
		if err := reduceFrame(got, 0, p2, "fold"); err != nil {
			return nil, nil, err
		}
	}

	// Recursive halving on compressed block sets.
	lo, hi := 0, p2
	for dist := p2 / 2; dist >= 1; dist /= 2 {
		partner := oldRank(newrank^dist, n, p2)
		mid := (lo + hi) / 2
		var keepLo, keepHi, sendLo, sendHi int
		if newrank&dist == 0 {
			keepLo, keepHi, sendLo, sendHi = lo, mid, mid, hi
		} else {
			keepLo, keepHi, sendLo, sendHi = mid, hi, lo, mid
		}
		got, err := sendBlocks(partner, sendLo, sendHi)
		if err != nil {
			return nil, nil, err
		}
		for k := sendLo; k < sendHi; k++ { // the partner reduces these from here on
			bufpool.PutBytes(cblocks[k])
			cblocks[k] = nil
		}
		if err := reduceFrame(got, keepLo, keepHi-keepLo, "halving"); err != nil {
			return nil, nil, err
		}
		lo, hi = keepLo, keepHi
	}

	// Recursive doubling allgather of compressed blocks. The gathered blocks
	// stay inside the frames they arrived in until they are decompressed.
	frames := [][]byte{cblocks[lo]} // this rank's own reduced block, then every frame
	for dist := 1; dist < p2; dist *= 2 {
		partner := oldRank(newrank^dist, n, p2)
		got, err := sendBlocks(partner, lo, hi)
		if err != nil {
			return nil, nil, err
		}
		frames = append(frames, got)
		blobs, err := unframeBlobs(got)
		if err != nil {
			return nil, nil, err
		}
		var plo int
		if newrank&dist == 0 {
			plo = lo + (hi - lo)
		} else {
			plo = lo - (hi - lo)
		}
		if len(blobs) != hi-lo {
			return nil, nil, fmt.Errorf("core: doubling frame has %d blocks, want %d", len(blobs), hi-lo)
		}
		for i, blob := range blobs {
			cblocks[plo+i] = blob
		}
		if plo < lo {
			lo = plo
		} else {
			hi = plo + (hi - lo)
		}
	}

	// Decompress everything.
	out := make([]float32, len(data))
	for k := 0; k < p2; k++ {
		s, e := BlockBounds(len(data), p2, k)
		var derr error
		c.work(r, cluster.CatDPR, 4*(e-s), func() {
			derr = fzlight.DecompressInto(cblocks[k], out[s:e])
		})
		if derr != nil {
			return nil, nil, derr
		}
	}
	for _, f := range frames {
		bufpool.PutBytes(f)
	}

	// Unfold: ship the raw result to the folded partner.
	if g.id < 2*rem && g.id%2 == 1 {
		raw := g.staged(out)
		err := g.rawSend(g.id-1, raw)
		bufpool.PutBytes(raw)
		if err != nil {
			return nil, nil, err
		}
	}
	return out, stats, nil
}

// AllreduceCCollRecursive is the C-Coll (DOC) Rabenseifner allreduce: the
// same recursive-halving/doubling schedule as the plain variant, with
// every exchanged segment compressed before the send (CPR) and
// decompressed after the receive (DPR). Unlike the homomorphic variant
// the reduction happens in the raw domain, so each halving round pays the
// full decompress-operate(-recompress-next-round) cost on a halving
// payload — completing the three-backend coverage of this algorithm
// family for the DegradePolicy ladder.
func (c Collectives) AllreduceCCollRecursive(r *cluster.Rank, data []float32) ([]float32, error) {
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

	// Fold phase: compressed full-vector hand-off to the odd partner.
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
			// The final result arrives as the canonical framed block
			// payloads every active rank decoded — decode the same bytes.
			final, err := unframeBlobsN(got, p2)
			if err != nil {
				return nil, err
			}
			out := make([]float32, len(data))
			for k, blob := range final {
				s, e := BlockBounds(len(data), p2, k)
				if err := decompressInto(blob, out[s:e]); err != nil {
					return nil, err
				}
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

	// Recursive halving over p2 blocks, DOC per round.
	lo, hi := 0, p2
	for dist := p2 / 2; dist >= 1; dist /= 2 {
		partner := oldRank(newrank^dist, n, p2)
		mid := (lo + hi) / 2
		var keepLo, keepHi, sendLo, sendHi int
		if newrank&dist == 0 {
			keepLo, keepHi, sendLo, sendHi = lo, mid, mid, hi
		} else {
			keepLo, keepHi, sendLo, sendHi = mid, hi, lo, mid
		}
		ss, _ := BlockBounds(len(data), p2, sendLo)
		_, se := BlockBounds(len(data), p2, sendHi-1)
		comp, err := compress(acc[ss:se])
		if err != nil {
			return nil, err
		}
		got, err := g.sendRecv(partner, comp, partner, true)
		if err != nil {
			return nil, err
		}
		ks, _ := BlockBounds(len(data), p2, keepLo)
		_, ke := BlockBounds(len(data), p2, keepHi-1)
		vals := make([]float32, ke-ks)
		if err := decompressInto(got, vals); err != nil {
			return nil, err
		}
		c.work(r, cluster.CatCPT, 4*(ke-ks), func() { addInto(acc[ks:ke], vals) })
		lo, hi = keepLo, keepHi
	}

	// Recursive-doubling allgather of canonical compressed blocks: each
	// p2-block is compressed exactly once by the rank whose halving ended
	// on it, and its bytes then travel verbatim (framed, never
	// re-compressed). Every rank — the block's reducer included — decodes
	// the same payload, so the allreduce replicates bitwise across ranks
	// despite quantization, and the DOC allgather pays one CPR plus p2
	// DPRs instead of a recompression per round.
	blobs := make([][]byte, p2)
	{
		s, e := BlockBounds(len(data), p2, lo)
		comp, err := compress(acc[s:e])
		if err != nil {
			return nil, err
		}
		blobs[lo] = comp
	}
	for dist := 1; dist < p2; dist *= 2 {
		partner := oldRank(newrank^dist, n, p2)
		frame := frameBlobs(blobs[lo:hi])
		got, err := g.sendRecv(partner, frame, partner, true)
		bufpool.PutBytes(frame) // copied on send: dead here
		if err != nil {
			return nil, err
		}
		var plo, phi int
		if newrank&dist == 0 {
			plo, phi = hi, hi+(hi-lo)
		} else {
			plo, phi = lo-(hi-lo), lo
		}
		part, err := unframeBlobsN(got, phi-plo)
		if err != nil {
			return nil, err
		}
		copy(blobs[plo:phi], part)
		if plo < lo {
			lo = plo
		} else {
			hi = phi
		}
	}

	// Decode every block from its canonical bytes (own included).
	out := make([]float32, len(data))
	for k, blob := range blobs {
		s, e := BlockBounds(len(data), p2, k)
		if err := decompressInto(blob, out[s:e]); err != nil {
			return nil, err
		}
	}

	// Unfold: ship the canonical framed blocks to the folded partner.
	if g.id < 2*rem && g.id%2 == 1 {
		frame := frameBlobs(blobs)
		err := g.rawSend(g.id-1, frame)
		bufpool.PutBytes(frame)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
