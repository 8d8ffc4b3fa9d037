package core

import (
	"errors"
	"fmt"

	"hzccl/internal/bufpool"
	"hzccl/internal/cluster"
	"hzccl/internal/floatbytes"
	"hzccl/internal/telemetry"
)

// rank is what a schedule needs of its process: a fabric and a virtual
// clock. *cluster.Rank is the real one; Price supplies its own.
type rank interface {
	Send(to int, data []byte) error
	Recv(from int) ([]byte, error)
	Elapse(cat cluster.Category, seconds float64)
}

// comm is a communicator: an ordered group of ranks executing one
// collective together. The algorithm implementations in this package are
// written against comm rather than *cluster.Rank directly, so the same
// ring / recursive / tree code runs at any level of a topology — over
// the whole world, over one node's members, or over the node leaders —
// with group-local peer ids transparently translated to global ranks.
//
// A comm does not change message semantics: sends and receives go
// through the underlying rank (and therefore through whatever transport,
// reliability and fault machinery the cluster is configured with).
type comm struct {
	r rank
	// replay is set in a pricing replay (Price), whose rank r is.
	replay *replay
	// ranks maps group-local id -> global rank. nil means the identity
	// mapping over the full world (the common, allocation-free case).
	ranks []int
	// id is this rank's local id within the group, size the group's size.
	id, size int
}

// world wraps a rank as the full-cluster communicator.
func world(r *cluster.Rank) comm { return comm{r: r, id: r.ID, size: r.N} }

// subcomm builds the communicator over the given global ranks of g's
// world (sorted in the group's rank order). ok is false when the calling
// rank is not a member.
func (g comm) subcomm(members []int) (comm, bool) {
	for i, m := range members {
		if m == g.global(g.id) {
			return comm{r: g.r, replay: g.replay, ranks: members, id: i, size: len(members)}, true
		}
	}
	return comm{}, false
}

// n returns the group size.
func (g comm) n() int { return g.size }

// global translates a group-local id to a global rank.
func (g comm) global(lid int) int {
	if g.ranks == nil {
		return lid
	}
	return g.ranks[lid]
}

// send posts payload to local id `to`, counting it as compressed (an
// fZ-light container or a frame of them) or raw wire bytes. Every payload a
// schedule moves goes through send and recv, so the wire-byte counters and
// the send/recv span see all of it; a replay's count nothing.
//
// Once sent, a payload's bytes are never written again by anyone: the
// sender recycles it or leaves it be, the receiver only reads it. A replay
// relies on that to pass payloads by reference, and goes further — it
// writes no payload or vector at all (see replay).
func (g comm) send(to int, payload []byte, compressed bool) error {
	sp := g.span(mStageSendRecvNS)
	err := g.r.Send(g.global(to), payload)
	sp.End()
	if err == nil && g.replay == nil {
		countRingBytes(payload, compressed)
	}
	return err
}

// recv blocks for the next message from local id `from`, spanning the wait.
func (g comm) recv(from int) ([]byte, error) {
	sp := g.span(mStageSendRecvNS)
	got, err := g.r.Recv(g.global(from))
	sp.End()
	return got, err
}

// span starts a wall-clock span into h; a replay's spans record nothing.
func (g comm) span(h *telemetry.Histogram) telemetry.Span {
	if g.replay != nil {
		return telemetry.Span{}
	}
	return h.Start()
}

// sendRecv is send then recv: one ring step with nothing to do in between.
func (g comm) sendRecv(to int, payload []byte, from int, compressed bool) ([]byte, error) {
	if err := g.send(to, payload, compressed); err != nil {
		return nil, err
	}
	return g.recv(from)
}

// ErrSizeMismatch — wrapped with the observing rank, phase and step — means
// a plain-flavor payload was not exactly the length the schedule expects.
// Every plain receive checks before decoding or reducing, so a short, long
// or ragged payload fails typed, never silently or by panic.
var ErrSizeMismatch = errors.New("core: payload size mismatch")

// The plain data path, shared by every schedule: the wire format of a
// float32 block is its little-endian memory, so a partial sends a block as
// floatbytes.Wire's view of its own sums (cluster.Send is done with
// the caller's bytes when it returns), reduces an incoming one straight from
// the wire bytes and recycles each payload once consumed. Only a payload the
// caller is going to recycle is encoded into a pooled buffer (staged): a
// view must never reach bufpool, which would hand a caller's result vector
// to the next Get.

// staged encodes vals into a pooled buffer; the caller recycles it.
func (g comm) staged(vals []float32) []byte {
	p := g.bytes(4 * len(vals))
	if g.replay == nil {
		floatbytes.FromFloat32(p, vals)
	}
	return p
}

// checkSize fails unless got encodes exactly n floats.
func (g comm) checkSize(got []byte, n int, phase string, step int) error {
	if len(got) == 4*n {
		return nil
	}
	return fmt.Errorf("%w: rank %d %s %d: got %d bytes, want %d",
		ErrSizeMismatch, g.global(g.id), phase, step, len(got), 4*n)
}

// decodeInto decodes got into dst, which it must fill exactly; the caller
// keeps got. A replay reads no payload.
func (g comm) decodeInto(dst []float32, got []byte, phase string, step int) error {
	if err := g.checkSize(got, len(dst), phase, step); err != nil {
		return err
	}
	if g.replay == nil {
		floatbytes.Load(dst, got)
	}
	return nil
}

// reduceInto adds got into dst (which it must fill exactly) straight from
// the wire bytes — dst[i] += got[i], ascending, charged as CPT over the raw
// bytes — and recycles got.
func (c Collectives) reduceInto(g comm, dst []float32, got []byte, phase string, step int) error {
	if err := g.checkSize(got, len(dst), phase, step); err != nil {
		return err
	}
	if g.replay != nil {
		c.charge(g, cluster.CatCPT, len(got))
		return nil
	}
	c.work(g, cluster.CatCPT, len(got), func() { floatbytes.AddInto(dst, got) })
	bufpool.PutBytes(got)
	return nil
}

// Scratch comes from bufpool, and so does a result when the pool holds
// one, except in a replay, where both are slices of its zero arena: the
// pool and its counters are left alone, and a replay of any world holds one
// vector's memory. The write helpers below skip the write in a replay,
// which keeps the arena zero and the ranks that share it free of races.

func (g comm) bytes(n int) []byte {
	if g.replay != nil {
		return g.replay.bytes(n)
	}
	return bufpool.Bytes(n)
}

func (g comm) recycle(b []byte) {
	if g.replay == nil {
		bufpool.PutBytes(b)
	}
}

func (g comm) floats(n int) []float32 {
	if g.replay != nil {
		return g.replay.floats(n)
	}
	return bufpool.Float32s(n)
}

func (g comm) recycleFloats(s []float32) {
	if g.replay == nil {
		bufpool.PutFloat32s(s)
	}
}

// vector returns an n-value vector the caller keeps: a result. It is
// recycled memory when bufpool holds some (bufpool.KeepFloat32s), so its
// contents are undefined and every element must be written before it is
// read. Core never puts a result back; a vector it only cuts a block from
// is scratch, and recycleFloats returns it.
func (g comm) vector(n int) []float32 {
	if g.replay != nil {
		return g.replay.floats(n)
	}
	return bufpool.KeepFloat32s(n)
}

// clone returns a fresh copy of src the caller keeps: what a rank keeps of
// its own contribution, or a result.
func (g comm) clone(src []float32) []float32 {
	if g.replay != nil {
		return g.replay.floats(len(src))
	}
	out := make([]float32, len(src))
	copy(out, src)
	return out
}

// copy copies src into dst.
func (g comm) copy(dst, src []float32) {
	if g.replay == nil {
		copy(dst, src)
	}
}
