package core

import (
	"fmt"

	"hzccl/internal/bufpool"
	"hzccl/internal/cluster"
	"hzccl/internal/hzdyn"
)

// hzPartial is the hZCCL flavor: every block is compressed once and from
// then on reduced in compressed form (HPR); only a finished block is ever
// decompressed.
//
// Under the ring (several blocks, one per message) the compression is
// pipelined against the first exchange (paper §III-C): the block that leaves
// first compresses first, and the other N−1 compress while it is in flight —
// the same N × CPR charge, split 1 + (N−1) around the first send. Every other
// schedule needs all its blocks before its first receive and compresses them
// up front under one charge.
type hzPartial struct {
	blocks
	data []float32 // the caller's input, read until every block is compressed
	// cb[k] is block k compressed; owned[k] says it is a whole pooled buffer
	// of this partial's (a blob inside an adopted frame is not).
	cb    [][]byte
	owned []bool
	// frames are adopted frames, alive while cb points into them.
	frames [][]byte
	// out is the last frame, or the raw unfold payload.
	out []byte
	// all says every block has been compressed once; awayLo..awayHi are the
	// blocks of the last wire, recycled once it is sent.
	all            bool
	awayLo, awayHi int
	stats          *hzdyn.Stats
	decoded        bool
}

func newHZ(b blocks, data []float32, stats *hzdyn.Stats) (*hzPartial, error) {
	p := &hzPartial{blocks: b, data: data, cb: make([][]byte, b.nb), owned: make([]bool, b.nb), stats: stats}
	if b.framed || b.nb == 1 {
		return p, p.ensure(0, b.nb)
	}
	return p, nil
}

func (p *hzPartial) compressed() bool { return true }

// ensure compresses the blocks of [lo, hi) that are not compressed yet, all
// under one CPR charge.
func (p *hzPartial) ensure(lo, hi int) (err error) {
	missing, raw := 0, 0
	for k := lo; k < hi && !p.all; k++ {
		if p.cb[k] == nil {
			s, e := p.span(k, k+1)
			missing, raw = missing+1, raw+e-s
		}
	}
	if missing == 0 {
		return nil
	}
	p.c.work(p.g.r, cluster.CatCPR, 4*raw, func() {
		for k := lo; k < hi && err == nil; k++ {
			if p.cb[k] == nil {
				s, e := p.span(k, k+1)
				p.cb[k], err = p.c.compressRaw(p.data[s:e])
				p.owned[k] = err == nil
			}
		}
	})
	return err
}

// set replaces block k, recycling the buffer it held.
func (p *hzPartial) set(k int, b []byte, owned bool) {
	if p.owned[k] {
		bufpool.PutBytes(p.cb[k])
	}
	p.cb[k], p.owned[k] = b, owned
}

// wire is final, except that partial sums sent away are the receiver's to
// finish: once sent, this rank recycles them — unless the exchange is the
// whole vector both ways (nb == 1), where both sides keep reducing it.
func (p *hzPartial) wire(lo, hi int) ([]byte, error) {
	if p.nb > 1 {
		p.awayLo, p.awayHi = lo, hi
	}
	return p.final(lo, hi)
}

// final sends a lone block as the bare container and several as one frame:
// a finished block is already in the form it travels in — the Allreduce
// co-design, no DPR after the reduce-scatter and no CPR before the allgather.
func (p *hzPartial) final(lo, hi int) ([]byte, error) {
	if err := p.ensure(lo, hi); err != nil {
		return nil, err
	}
	if !p.framed {
		return p.cb[lo], nil
	}
	release(&p.out)
	p.out = frameBlobs(p.cb[lo:hi])
	return p.out, nil
}

func (p *hzPartial) sent() error {
	release(&p.out)
	err := p.ensure(0, p.nb)
	p.all = true
	for k := p.awayLo; k < p.awayHi; k++ {
		p.set(k, nil, false)
	}
	p.awayLo, p.awayHi = 0, 0
	return err
}

func (p *hzPartial) reduce(lo, hi int, got []byte) error {
	if err := p.ensure(lo, hi); err != nil {
		return err
	}
	blobs := [][]byte{got}
	if p.framed {
		var err error
		if blobs, err = unframeBlobsN(got, hi-lo); err != nil {
			return err
		}
	}
	for i, blob := range blobs {
		k := lo + i
		s, e := p.span(k, k+1)
		sum, err := p.c.addPooled(p.g.r, p.cb[k], blob, e-s, p.stats)
		if err != nil {
			return err
		}
		p.set(k, sum, true)
	}
	bufpool.PutBytes(got)
	return nil
}

func (p *hzPartial) adopt(lo, hi int, got []byte) error {
	if !p.framed {
		p.set(lo, got, true)
		return nil
	}
	blobs, err := unframeBlobsN(got, hi-lo)
	if err != nil {
		return err
	}
	p.frames = append(p.frames, got)
	for i, blob := range blobs {
		p.set(lo+i, blob, false)
	}
	return nil
}

// unfold ships the compressed vector under recursive doubling — the
// folded-out rank pays its own DPR — and the decoded one, raw, under
// Rabenseifner, where that rank would otherwise decode every block again.
func (p *hzPartial) unfold() ([]byte, bool, error) {
	if !p.framed {
		payload, err := p.final(0, p.nb)
		return payload, true, err
	}
	out, err := p.result()
	if err != nil {
		return nil, false, err
	}
	release(&p.out)
	p.out = p.g.staged(out)
	return p.out, false, nil
}

func (p *hzPartial) refold(got []byte) ([]float32, error) {
	if !p.framed {
		if err := p.adopt(0, p.nb, got); err != nil {
			return nil, err
		}
		return p.result()
	}
	if err := p.g.decodeInto(p.vector(), got, "unfold", 0); err != nil {
		return nil, err
	}
	bufpool.PutBytes(got)
	return p.into, nil
}

// result decompresses every block, recycling each as it goes: nothing may
// ask for a block again.
func (p *hzPartial) result() ([]float32, error) {
	if p.decoded {
		return p.into, nil
	}
	if err := p.ensure(0, p.nb); err != nil {
		return nil, err
	}
	for i := 0; i < p.nb; i++ {
		k := p.decodeOrder(i)
		s, e := p.span(k, k+1)
		if err := p.c.decompressInto(p.g.r, p.cb[k], p.vector()[s:e]); err != nil {
			return nil, fmt.Errorf("core: rank %d decoding block %d: %w", p.g.r.ID, k, err)
		}
		p.set(k, nil, false)
	}
	p.decoded = true
	return p.into, nil
}

func (p *hzPartial) blockInto(k int, dst []float32) error {
	if err := p.ensure(k, k+1); err != nil {
		return err
	}
	return p.c.decompressInto(p.g.r, p.cb[k], dst)
}

func (p *hzPartial) close() {
	release(&p.out)
	for k := range p.cb {
		p.set(k, nil, false)
	}
	for _, f := range p.frames {
		bufpool.PutBytes(f)
	}
	p.frames = nil
}
