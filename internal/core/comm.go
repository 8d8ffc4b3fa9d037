package core

import (
	"errors"
	"fmt"

	"hzccl/internal/bufpool"
	"hzccl/internal/cluster"
	"hzccl/internal/floatbytes"
)

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
	r *cluster.Rank
	// ranks maps group-local id -> global rank. nil means the identity
	// mapping over the full world (the common, allocation-free case).
	ranks []int
	// id is this rank's local id within the group.
	id int
}

// world wraps a rank as the full-cluster communicator.
func world(r *cluster.Rank) comm { return comm{r: r, id: r.ID} }

// subcomm builds the communicator over the given global ranks (which
// must be sorted in the group's rank order). ok is false when the
// calling rank is not a member.
func subcomm(r *cluster.Rank, members []int) (comm, bool) {
	for i, g := range members {
		if g == r.ID {
			return comm{r: r, ranks: members, id: i}, true
		}
	}
	return comm{}, false
}

// n returns the group size.
func (g comm) n() int {
	if g.ranks == nil {
		return g.r.N
	}
	return len(g.ranks)
}

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
// the send/recv span see all of it.
func (g comm) send(to int, payload []byte, compressed bool) error {
	sp := mStageSendRecvNS.Start()
	err := g.r.Send(g.global(to), payload)
	sp.End()
	if err == nil {
		countRingBytes(payload, compressed)
	}
	return err
}

// recv blocks for the next message from local id `from`, spanning the wait.
func (g comm) recv(from int) ([]byte, error) {
	sp := mStageSendRecvNS.Start()
	got, err := g.r.Recv(g.global(from))
	sp.End()
	return got, err
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
	p := bufpool.Bytes(4 * len(vals))
	g.r.Quiesce(func() { floatbytes.FromFloat32(p, vals) })
	return p
}

// checkSize fails unless got encodes exactly n floats.
func (g comm) checkSize(got []byte, n int, phase string, step int) error {
	if len(got) == 4*n {
		return nil
	}
	return fmt.Errorf("%w: rank %d %s %d: got %d bytes, want %d",
		ErrSizeMismatch, g.r.ID, phase, step, len(got), 4*n)
}

// decodeInto decodes got into dst, which it must fill exactly; the caller
// keeps got.
func (g comm) decodeInto(dst []float32, got []byte, phase string, step int) error {
	if err := g.checkSize(got, len(dst), phase, step); err != nil {
		return err
	}
	g.r.Quiesce(func() { floatbytes.Load(dst, got) })
	return nil
}

// reduceInto adds got into dst (which it must fill exactly) straight from
// the wire bytes — dst[i] += got[i], ascending, charged as CPT over the raw
// bytes — and recycles got.
func (c Collectives) reduceInto(g comm, dst []float32, got []byte, phase string, step int) error {
	if err := g.checkSize(got, len(dst), phase, step); err != nil {
		return err
	}
	c.work(g.r, cluster.CatCPT, len(got), func() { floatbytes.AddInto(dst, got) })
	bufpool.PutBytes(got)
	return nil
}
