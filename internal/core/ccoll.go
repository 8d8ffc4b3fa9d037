package core

// ccollPartial is the C-Coll flavor: float32 sums in the raw domain, every
// message an fZ-light container — compress what leaves (CPR), decompress
// what arrives (DPR), add (CPT).
//
// Quantization must not break the allreduce's replication contract, so a
// finished block is compressed exactly once, by the rank that finished it;
// those canonical bytes then travel verbatim and every rank — the one that
// made them included — decodes the same payload. Two quirks follow from
// that:
//
//   - When every exchange is the whole vector both ways (nb == 1: recursive
//     doubling), both partners reduce what they sent, so each first
//     re-anchors its sums to dec(what it sent): a round then adds the same
//     two operands on both sides, and float32 addition commutes.
//   - In a folded world the folded-out ranks can only decode
//     dec(comp(final)), so under that schedule every rank's result is that.
type ccollPartial struct {
	blocks
	// Block k's sums are the caller's data until its first reduce, which
	// writes data + dec(got) into acc, pooled, and sets held[k]; the input
	// is never copied.
	data, acc []float32
	held      []bool
	// reanchor is the first quirk above, requant the second.
	reanchor, requant bool
	// out is the last wire payload or frame.
	out []byte
	// blobs[k] is finished block k's canonical container, once known.
	blobs [][]byte
	// pooled lists whole buffers behind blobs, recycled at close.
	pooled  [][]byte
	decoded bool
}

func newCColl(b blocks, data []float32) *ccollPartial {
	n := b.g.n()
	p := &ccollPartial{blocks: b, data: data, acc: b.g.floats(len(data)), held: make([]bool, b.nb), blobs: make([][]byte, b.nb)}
	p.reanchor = b.nb == 1
	p.requant = p.reanchor && n&(n-1) != 0
	return p
}

func (p *ccollPartial) compressed() bool { return true }

// vals returns the slice holding the sums of blocks [lo, hi). A schedule
// reduces a span either wholly for the first time or inside one it reduced
// before, so block lo speaks for the span.
func (p *ccollPartial) vals(lo, hi int) []float32 {
	s, e := p.span(lo, hi)
	if p.held[lo] {
		return p.acc[s:e]
	}
	return p.data[s:e]
}

// wire compresses the span as one container.
func (p *ccollPartial) wire(lo, hi int) (payload []byte, err error) {
	p.release(&p.out)
	p.out, err = p.c.compressPooled(p.g, p.vals(lo, hi))
	return p.out, err
}

func (p *ccollPartial) sent() error {
	if !p.reanchor {
		p.release(&p.out)
	}
	return nil
}

func (p *ccollPartial) reduce(lo, hi int, got []byte) error {
	sums := p.vals(lo, hi)
	s, e := p.span(lo, hi)
	acc := p.acc[s:e]
	for k := lo; k < hi; k++ {
		p.held[k] = true
	}
	if p.reanchor && p.out != nil {
		if err := p.c.decompressInto(p.g, p.out, acc); err != nil {
			return err
		}
		p.release(&p.out)
		sums = acc
	}
	return p.c.reduceDOC(p.g, acc, sums, got)
}

// canonical makes sure blocks [lo, hi) have their canonical containers,
// compressing the ones this rank finished itself.
func (p *ccollPartial) canonical(lo, hi int) error {
	for k := lo; k < hi; k++ {
		if p.blobs[k] != nil {
			continue
		}
		blob, err := p.c.compressPooled(p.g, p.vals(k, k+1))
		if err != nil {
			return err
		}
		p.blobs[k] = blob
		p.pooled = append(p.pooled, blob)
	}
	return nil
}

// carry returns the message holding the canonical blocks [lo, hi).
func (p *ccollPartial) carry(lo, hi int) []byte {
	if !p.framed {
		return p.blobs[lo]
	}
	p.release(&p.out)
	p.out = p.g.frameBlobs(p.blobs[lo:hi])
	return p.out
}

func (p *ccollPartial) final(lo, hi int) ([]byte, error) {
	if err := p.canonical(lo, hi); err != nil {
		return nil, err
	}
	return p.carry(lo, hi), nil
}

func (p *ccollPartial) adopt(lo, hi int, got []byte) error {
	p.pooled = append(p.pooled, got)
	if !p.framed {
		p.blobs[lo] = got
		return nil
	}
	part, err := p.unframe(got, lo, hi)
	if err != nil {
		return err
	}
	copy(p.blobs[lo:hi], part)
	return nil
}

// unfold decodes before it sends, so the folded-out rank waits for this
// rank's own decompression: the order of those charges is a fixed point of
// the virtual clock.
func (p *ccollPartial) unfold() ([]byte, bool, error) {
	if err := p.canonical(0, p.nb); err != nil {
		return nil, true, err
	}
	if _, err := p.result(); err != nil {
		return nil, true, err
	}
	return p.carry(0, p.nb), true, nil
}

func (p *ccollPartial) refold(got []byte) ([]float32, error) {
	if err := p.adopt(0, p.nb, got); err != nil {
		return nil, err
	}
	return p.result()
}

// result decodes every block that has a canonical container from it (this
// rank's own included) and copies the rest from the raw sums.
func (p *ccollPartial) result() ([]float32, error) {
	if p.decoded {
		return p.into, nil
	}
	if p.requant {
		if err := p.canonical(0, p.nb); err != nil {
			return nil, err
		}
	}
	for i := 0; i < p.nb; i++ {
		k := p.decodeOrder(i)
		s, e := p.span(k, k+1)
		if p.blobs[k] == nil {
			p.g.copy(p.vector()[s:e], p.vals(k, k+1))
		} else if err := p.c.decompressInto(p.g, p.blobs[k], p.vector()[s:e]); err != nil {
			return nil, err
		}
	}
	p.decoded = true
	return p.into, nil
}

func (p *ccollPartial) blockInto(k int, dst []float32) error {
	p.g.copy(dst, p.vals(k, k+1))
	return nil
}

func (p *ccollPartial) close() {
	p.release(&p.out)
	for _, b := range p.pooled {
		p.g.recycle(b)
	}
	p.pooled = nil
	p.g.recycleFloats(p.acc)
}
