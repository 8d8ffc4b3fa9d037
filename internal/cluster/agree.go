package cluster

// The agreement round. Barrier, AgreeMax and the membership round
// AgreeDead are one protocol, written here once: a coordinator star that
// every fabric carries as fixed-size control records (Transport.sendCtl
// and recvCtl) — a second buffered channel per link in-process, the
// agree/release frames over TCP. The fabrics hold no agreement logic.
//
//   - Every rank numbers its rounds itself (Rank.agreeGen); every rank
//     calls them in the same program order, so the numbers match and a
//     record of another round is a protocol error, never a mispairing.
//   - The coordinator is the lowest member whose control link this rank
//     has not seen close. Only authoritative evidence closes a link: the
//     rank's exit in-process, reader EOF or the job's bye over TCP.
//     Suspicion alone never does.
//   - A member sends (gen, flags, clock, v, propose) to the coordinator and
//     waits for the release. If the coordinator's link closes first, the
//     member marks it gone and sends the same record to the next lowest
//     member: re-election. Kills fire only at data sends and control
//     records are immune to injected faults, so an injected death always
//     lands before a round starts, and the survivors elect the next member
//     on both fabrics.
//   - The coordinator gathers from every other member in ascending order.
//     A member whose link closes joins the dead set. It folds the maximum
//     clock, the maximum v and the union of the dead sets; everyone leaves
//     at max clock + α·⌈log₂ participants⌉, the cost of a tree barrier.
//     It then releases every participant.
//   - A classic round (AgreeMax, Barrier) that lost a member gives every
//     survivor the same *RankFailedError; a tolerant round (AgreeDead)
//     succeeds with the dead set.
//
// One case stays outside: a coordinator that dies between two of its own
// release writes. The members it released have left; one it had not
// re-elects and re-sends a round the new coordinator has already passed,
// which that coordinator reports as a protocol error. With RecvTimeout set
// every wait is bounded by agreeTimeout, so such a survivor fails typed
// rather than hanging.

import (
	"fmt"
	"math"
	"time"

	"hzccl/internal/telemetry"
)

// ctlRecord is one control record of an agreement round: a member's
// contribution (kind frameAgree) or the coordinator's release
// (frameRelease). Over TCP its kind is the frame type.
type ctlRecord struct {
	kind  byte
	gen   uint32
	flags byte
	clock float64
	val   int64
	dead  uint64
}

// Control-record flags.
const (
	// ctlTolerant marks a membership round (AgreeDead).
	ctlTolerant = 1 << 0
	// ctlFailed marks the release of a classic round that lost a member.
	// It carries the failure on worlds whose dead ranks lie beyond the
	// 64-bit bitmap.
	ctlFailed = 1 << 1
)

// agree runs one agreement round: this rank contributes v and the dead
// set it proposes, and gets back the maximum v and the union of the dead
// sets. On success its clock moves to the common leave time, charged to
// MPI. A classic round that lost a member fails with a *RankFailedError;
// a tolerant round succeeds without it.
func (r *Rank) agree(v int, propose uint64, tolerant bool) (int, uint64, error) {
	own := ctlRecord{kind: frameAgree, gen: r.agreeGen, clock: r.now, val: int64(v), dead: propose}
	r.agreeGen++
	if tolerant {
		own.flags = ctlTolerant
	}
	rel, err := r.release(own)
	if err != nil {
		return 0, 0, err
	}
	if rel.flags&ctlFailed != 0 {
		return 0, rel.dead, fmt.Errorf("%w: barrier aborted, a member exited before reaching it", rankFailedFromBits(rel.dead, nil))
	}
	// Flight event: A proposed, B agreed, C = 1 for a membership round.
	a, b, kind := int64(v), rel.val, int64(0)
	if tolerant {
		a, b, kind = int64(propose), int64(rel.dead), 1
	}
	flight.Record(r.phys, telemetry.FlightAgree, a, b, kind, 0)
	if rel.clock > r.now {
		if tr := r.c.trace; tr != nil {
			tr.record(TraceEvent{Rank: r.phys, Category: CatMPI, Start: r.now, Dur: rel.clock - r.now})
		}
		r.breakdown[CatMPI] += rel.clock - r.now
		r.now = rel.clock
	}
	return int(rel.val), rel.dead, nil
}

// release takes part in the round until it holds the release: as a
// member it sends its record to the coordinator and waits, re-electing
// when the coordinator's link closes first; as the coordinator it
// gathers.
func (r *Rank) release(own ctlRecord) (ctlRecord, error) {
	timeout := r.c.cfg.agreeTimeout()
	for {
		coord := r.coordinator()
		if coord == r.phys {
			return r.gather(own, timeout)
		}
		if r.c.tr.sendCtl(r.phys, coord, own) == nil {
			rel, ok, err := r.c.tr.recvCtl(coord, r.phys, timeout)
			if err != nil {
				return rel, fmt.Errorf("%w: barrier, coordinator rank %d silent after %v", err, coord, timeout)
			}
			if ok {
				return rel, checkCtl(rel, coord, frameRelease, own.gen)
			}
		}
		r.ctlGone[coord] = true
	}
}

// coordinator is the lowest member whose control link this rank has not
// seen close; the rank itself when every lower one has.
func (r *Rank) coordinator() int {
	for v := 0; ; v++ {
		if p := r.peerPhys(v); p == r.phys || !r.ctlGone[p] {
			return p
		}
	}
}

// gather is the coordinator's side: fold every other member's record in
// ascending order, then release the participants.
func (r *Rank) gather(own ctlRecord, timeout time.Duration) (ctlRecord, error) {
	rel := own
	rel.kind = frameRelease
	participants, lost := 1, false
	for v := 0; v < r.N; v++ {
		p := r.peerPhys(v)
		if p == r.phys {
			continue
		}
		if !r.ctlGone[p] {
			c, ok, err := r.c.tr.recvCtl(p, r.phys, timeout)
			if err != nil {
				return rel, fmt.Errorf("%w: barrier, rank %d missing after %v", err, p, timeout)
			}
			if ok {
				if err := checkCtl(c, p, frameAgree, own.gen); err != nil {
					return rel, err
				}
				participants++
				rel.clock = max(rel.clock, c.clock)
				rel.val = max(rel.val, c.val)
				rel.dead |= c.dead
				continue
			}
			r.ctlGone[p] = true
		}
		rel.dead |= rankBit(p)
		lost = true
	}
	if participants > 1 {
		rel.clock += r.c.cfg.Latency.Seconds() * math.Ceil(math.Log2(float64(participants)))
	}
	if lost && own.flags&ctlTolerant == 0 {
		rel.flags |= ctlFailed
	}
	for v := 0; v < r.N; v++ {
		if p := r.peerPhys(v); p != r.phys && !r.ctlGone[p] && r.c.tr.sendCtl(r.phys, p, rel) != nil {
			r.ctlGone[p] = true
		}
	}
	return rel, nil
}

// checkCtl verifies a record's kind and round number.
func checkCtl(c ctlRecord, from int, kind byte, gen uint32) error {
	if c.kind != kind || c.gen != gen {
		return fmt.Errorf("cluster: agreement protocol error with rank %d: got kind %d gen %d, want %d/%d (agreement rounds must run in the same order on every rank)",
			from, c.kind, c.gen, kind, gen)
	}
	return nil
}
