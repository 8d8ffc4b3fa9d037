package core

import (
	"fmt"

	"hzccl/internal/floatbytes"
	"hzccl/internal/hzdyn"
)

// Flavor selects what a partial result is while a schedule moves it — the
// one thing the paper's co-design changes (§III-C). It is the backend enum
// of the whole repository: hzccl.Backend and costmodel.Backend alias it.
type Flavor int

// Flavors.
const (
	// FlavorPlain keeps raw float32 sums: the original MPI baseline.
	FlavorPlain Flavor = iota
	// FlavorCColl keeps raw float32 sums and compresses every message: the
	// C-Coll decompress-operate-compress (DOC) workflow.
	FlavorCColl
	// FlavorHZ keeps fZ-light blocks and reduces them homomorphically: the
	// hZCCL co-design.
	FlavorHZ
)

func (f Flavor) String() string {
	switch f {
	case FlavorPlain:
		return "MPI"
	case FlavorCColl:
		return "C-Coll"
	case FlavorHZ:
		return "hZCCL"
	}
	return "unknown"
}

// Flavors lists every flavor, in enum order.
func Flavors() []Flavor { return []Flavor{FlavorPlain, FlavorCColl, FlavorHZ} }

// partial is one rank's partial result of a sum over a vector cut into nb
// blocks (BlockBounds(len, nb, k)), in one flavor's representation. The
// schedules in schedule.go decide which blocks go to whom and when; a
// partial decides what they look like on the wire and what reducing costs.
// Result bits, per-message byte counts and the order of virtual-time charges
// are fixed points, so where a flavor behaves differently under one schedule
// the difference lives in its partial, never in the schedule.
//
// A partial owns every buffer it hands out or is handed. A payload from
// wire, final or unfold is valid until the next call; a payload given to
// reduce, adopt or refold is the partial's to recycle, but an adopted one
// stays readable until the next call so that a ring can forward it.
type partial interface {
	// compressed labels wire and final payloads for the wire-byte split.
	compressed() bool
	// wire returns this rank's partial sums of blocks [lo, hi) for a peer
	// to reduce into its own.
	wire(lo, hi int) ([]byte, error)
	// sent says the transport is done with the last payload's bytes: the
	// partial may recycle it and use the time it is in flight.
	sent() error
	// reduce adds a peer's wire(lo, hi) into blocks [lo, hi).
	reduce(lo, hi int, got []byte) error
	// final returns the finished blocks [lo, hi) for a peer to adopt.
	final(lo, hi int) ([]byte, error)
	// adopt takes a peer's final(lo, hi) as blocks [lo, hi).
	adopt(lo, hi int, got []byte) error
	// unfold returns the finished vector for a rank folded out of a
	// power-of-two schedule, and whether that payload counts as compressed.
	unfold() ([]byte, bool, error)
	// refold is the folded-out rank's side of unfold: its result.
	refold(got []byte) ([]float32, error)
	// result returns the finished vector — the `into` the partial was made
	// with.
	result() ([]float32, error)
	// blockInto copies finished block k into dst.
	blockInto(k int, dst []float32) error
	// close recycles every pooled buffer the partial still holds.
	close()
}

// newPartial starts flavor f's partial result from this rank's data, shaped
// as b says (the caller fills g, nb and what it needs of framed, full, into).
func (c Collectives) newPartial(f Flavor, b blocks, data []float32, stats *hzdyn.Stats) (partial, error) {
	b.c, b.n = c, len(data)
	switch f {
	case FlavorPlain:
		return newPlain(b, data), nil
	case FlavorCColl:
		return newCColl(b, data), nil
	case FlavorHZ:
		return newHZ(b, data, stats)
	}
	return nil, fmt.Errorf("core: unknown flavor %v", f)
}

// blocks is what every flavor knows about its partial's shape.
type blocks struct {
	c Collectives
	g comm
	// n elements are cut into nb blocks. nb == 1 also says every exchange
	// is the whole vector both ways (recursive doubling, the reduce tree).
	n, nb int
	// framed says several blocks travel in one message (Rabenseifner).
	framed bool
	// full says the caller will ask for result(), not just blockInto. into,
	// if non-nil, is the vector result() then fills and returns (it may be
	// data itself, for a caller that owns data); otherwise the partial
	// allocates one when it first needs it.
	full bool
	into []float32
}

// vector returns the result vector, allocating it on first use.
func (b *blocks) vector() []float32 {
	if b.into == nil {
		b.into = b.g.vector(b.n)
	}
	return b.into
}

// span returns the element range covering blocks [lo, hi).
func (b blocks) span(lo, hi int) (int, int) {
	s, _ := BlockBounds(b.n, b.nb, lo)
	_, e := BlockBounds(b.n, b.nb, hi-1)
	return s, e
}

// decodeOrder returns the i-th block to decode at the end: block order
// under Rabenseifner, origin order — rank 0's block, block 1, first — under
// the ring. The order of the DPR charges reaches the last bit of a rank's
// virtual clock when blocks differ in size, so it is a fixed point too.
func (b blocks) decodeOrder(i int) int {
	if b.framed {
		return i
	}
	return (i + 1) % b.nb
}

// sameVector reports whether a and b are the same full-length vector.
func sameVector(a, b []float32) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// unframe splits a frame of blocks [lo, hi) into their containers. A
// replay's frames carry no headers: its containers are each block's
// stand-in, the size its frameBlobs counted.
func (b blocks) unframe(got []byte, lo, hi int) ([][]byte, error) {
	if b.g.replay == nil {
		return unframeBlobsN(got, hi-lo)
	}
	out := make([][]byte, 0, hi-lo)
	for k := lo; k < hi; k++ {
		s, e := b.span(k, k+1)
		out = append(out, b.g.replay.payload(4*(e-s)))
	}
	return out, nil
}

// release recycles *buf and forgets it.
func (b *blocks) release(buf *[]byte) {
	b.g.recycle(*buf)
	*buf = nil
}

// plainPartial is the plain flavor: float32 sums, sent as their own memory
// and reduced straight from the little-endian wire bytes
// (floatbytes.AddInto), with no intermediate slice either way.
type plainPartial struct {
	blocks
	// acc holds the running sums: the result vector itself when the caller
	// wants one, pooled scratch otherwise.
	acc []float32
	// held is the last adopted payload, which the ring is still forwarding.
	held []byte
}

func newPlain(b blocks, data []float32) *plainPartial {
	p := &plainPartial{blocks: b}
	b.g.quiesce(func() {
		switch {
		case !b.full:
			p.acc = b.g.floats(len(data))
			b.g.copy(p.acc, data)
		case b.into == nil:
			p.into = b.g.clone(data) // allocated and filled in one step: nothing is cleared first
			p.acc = p.into
		default:
			p.acc = b.into
			if !sameVector(p.acc, data) {
				b.g.copy(p.acc, data)
			}
		}
	})
	return p
}

func (p *plainPartial) compressed() bool { return false }

func (p *plainPartial) vals(lo, hi int) []float32 {
	s, e := p.span(lo, hi)
	return p.acc[s:e]
}

func (p *plainPartial) wire(lo, hi int) ([]byte, error) {
	return floatbytes.Wire(p.vals(lo, hi)), nil
}

func (p *plainPartial) sent() error { return nil }

func (p *plainPartial) reduce(lo, hi int, got []byte) error {
	return p.c.reduceInto(p.g, p.vals(lo, hi), got, "reducing block", lo)
}

func (p *plainPartial) final(lo, hi int) ([]byte, error) { return p.wire(lo, hi) }

func (p *plainPartial) adopt(lo, hi int, got []byte) error {
	p.release(&p.held)
	if err := p.g.decodeInto(p.vals(lo, hi), got, "adopting block", lo); err != nil {
		return err
	}
	p.held = got
	return nil
}

func (p *plainPartial) unfold() ([]byte, bool, error) {
	payload, err := p.wire(0, p.nb)
	return payload, false, err
}

func (p *plainPartial) refold(got []byte) ([]float32, error) {
	if err := p.adopt(0, p.nb, got); err != nil {
		return nil, err
	}
	return p.acc, nil
}

func (p *plainPartial) result() ([]float32, error) { return p.acc, nil }

func (p *plainPartial) blockInto(k int, dst []float32) error {
	p.g.copy(dst, p.vals(k, k+1))
	return nil
}

func (p *plainPartial) close() {
	p.release(&p.held)
	if !p.full {
		p.g.recycleFloats(p.acc)
	}
}
