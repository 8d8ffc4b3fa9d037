package cluster

import (
	"errors"

	"hzccl/internal/crc32c"
	"hzccl/internal/telemetry"
)

// Fault injection and message integrity.
//
// Every point-to-point message carries a crc32c checksum and a per-pair
// sequence number. The receiver verifies both, so a corrupted, lost or
// duplicated message surfaces as a clear error at the first rank that
// observes it instead of silently propagating wrong bytes into a
// collective's result.
//
// A Cluster can additionally be configured with a Fault hook that decides,
// per message, whether the fabric delivers it intact, drops it, duplicates
// it, corrupts it in flight, or delays it. Conformance and robustness
// tests use the hook to prove that the integrity layer actually catches
// each failure mode on real collective traffic.

// Integrity errors returned by Recv.
var (
	// ErrMessageCorrupt means the payload no longer matches its checksum:
	// the message was damaged in flight.
	ErrMessageCorrupt = errors.New("cluster: message checksum mismatch (corruption detected)")
	// ErrMessageLost means a sequence gap was observed: an earlier message
	// from the same sender never arrived.
	ErrMessageLost = errors.New("cluster: message sequence gap (message lost in flight)")
	// ErrMessageDuplicate means a message with an already-consumed sequence
	// number arrived.
	ErrMessageDuplicate = errors.New("cluster: duplicate message sequence")
	// ErrRecvTimeout means no message arrived within Config.RecvTimeout of
	// wall-clock time. It is the backstop that turns a dropped-message
	// deadlock into a diagnosable failure.
	ErrRecvTimeout = errors.New("cluster: receive timed out")
)

// FaultAction is the fate the fault hook assigns to one message.
type FaultAction int

// Fault actions.
const (
	// FaultDeliver delivers the message unchanged (the default).
	FaultDeliver FaultAction = iota
	// FaultDrop discards the message. The receiver observes either a
	// sequence gap (if a later message arrives), ErrPeerFailed (if the
	// sender exits) or ErrRecvTimeout.
	FaultDrop
	// FaultDuplicate delivers the message twice. The second copy fails the
	// receiver's sequence check.
	FaultDuplicate
	// FaultCorrupt flips a payload bit in flight. The receiver's checksum
	// verification fails.
	FaultCorrupt
	// FaultDelay delivers the message with extra latency (the hook's
	// second return value, in seconds, added to the modeled arrival time).
	FaultDelay
	// FaultKill terminates the *sending* rank at this message: the message
	// is never transmitted, the rank's replay windows are discarded, and
	// every later Send/Recv on it fails with ErrRankKilled — the injected
	// equivalent of a process crash, driving the elastic-membership path
	// (failure detection, cooperative abort, shrink-and-continue). Only
	// honoured on original sends (Attempt == 0); a kill decision on a
	// retransmission is ignored.
	FaultKill
)

// FaultContext identifies one point-to-point message for the fault hook.
type FaultContext struct {
	// From and To are the sender and receiver ranks.
	From, To int
	// Seq is the 0-based ordinal of this message on the (From, To) link.
	// In a ring collective it equals the round number.
	Seq int
	// Len is the payload size in bytes.
	Len int
	// Epoch is the sender's AdvanceEpoch generation (0 until a collective
	// retries). Hooks can scope faults to the first attempt of a degrading
	// run by matching Epoch == 0.
	Epoch int
	// Attempt is 0 for the original send and k ≥ 1 for the k-th
	// retransmission of this message by the reliable-delivery layer. Hooks
	// that return the same action regardless of Attempt make a message
	// unrecoverable and exhaust the retry budget.
	Attempt int
	// RankSeq is the 0-based ordinal of this send among all of the sending
	// rank's original sends across every link (its program-order step
	// counter), or -1 for retransmissions. Kill schedules key off it to
	// crash a rank at a deterministic point of the collective regardless of
	// which link that step happens to use.
	RankSeq int
}

// Fault decides the fate of each message. It runs on the sender's
// goroutine and must be safe for concurrent use from all ranks. The
// returned seconds are only used with FaultDelay.
type Fault func(FaultContext) (FaultAction, float64)

// FaultOn builds a fault hook that applies action (with the given delay
// seconds, for FaultDelay) to every message matching the predicate and
// delivers everything else.
func FaultOn(pred func(FaultContext) bool, action FaultAction, delay float64) Fault {
	return func(fc FaultContext) (FaultAction, float64) {
		if pred(fc) {
			return action, delay
		}
		return FaultDeliver, 0
	}
}

// OnLink is a predicate matching one message on one link: the seq-th
// message from rank `from` to rank `to`.
func OnLink(from, to, seq int) func(FaultContext) bool {
	return func(fc FaultContext) bool {
		return fc.From == from && fc.To == to && fc.Seq == seq
	}
}

// CorruptPattern configures how FaultCorrupt damages a payload. The
// legacy behavior (Config.Corrupt == nil) flips bit 5 of the middle byte;
// a pattern makes the damage shape explicit so the checksum path is
// exercised beyond a single fixed bit.
type CorruptPattern struct {
	// Offset is the byte offset of the first damaged byte, clamped into
	// the payload. Ignored when Spray is set.
	Offset int
	// Mask is XORed into each damaged byte. 0 selects 0x20 (one bit).
	Mask byte
	// Burst is the number of consecutive bytes damaged (multi-bit burst
	// errors). Values below 1 select 1.
	Burst int
	// Spray derives the offset deterministically from the message identity
	// (link, sequence, epoch, attempt) instead of Offset, so a fault
	// schedule damages a different location in every message while staying
	// reproducible.
	Spray bool
}

// apply damages data in place according to the pattern. Empty payloads
// are handled by the caller (checksum poisoning).
func (p CorruptPattern) apply(data []byte, fc FaultContext) {
	if len(data) == 0 {
		return
	}
	off := p.Offset
	if p.Spray {
		off = int(chaosHash(0x5eed, fc) % uint64(len(data)))
	}
	if off < 0 {
		off = 0
	}
	if off >= len(data) {
		off = len(data) - 1
	}
	mask := p.Mask
	if mask == 0 {
		mask = 0x20
	}
	burst := p.Burst
	if burst < 1 {
		burst = 1
	}
	for i := 0; i < burst && off+i < len(data); i++ {
		data[off+i] ^= mask
	}
}

// checksum is the per-message integrity sum (crc32c; the folding kernel
// on amd64 with AVX-512 and VPCLMULQDQ).
func checksum(data []byte) uint32 { return crc32c.Checksum(data) }

// applyFault runs the configured hook (if any) on a message about to be
// enqueued and returns how many copies to deliver plus the extra delay.
// Corruption damages a private copy of the (already checksummed) payload —
// m.data is the sender's own buffer, for a plain collective a live
// accumulator — so the receiver's verification fails; for an empty payload
// it poisons the stored checksum directly.
func (c *Cluster) applyFault(m *message, to, rankSeq int) (copies int, drop, kill bool) {
	return c.applyFaultAttempt(m, to, 0, rankSeq)
}

// applyFaultAttempt is applyFault for a specific delivery attempt
// (attempt 0 is the original send, k ≥ 1 the k-th retransmission; rankSeq
// is -1 for retransmissions, which can never kill).
func (c *Cluster) applyFaultAttempt(m *message, to, attempt, rankSeq int) (copies int, drop, kill bool) {
	if c.cfg.Fault == nil {
		return 1, false, false
	}
	fc := FaultContext{From: m.from, To: to, Seq: m.seq, Len: len(m.data), Epoch: m.epoch, Attempt: attempt, RankSeq: rankSeq}
	action, delay := c.cfg.Fault(fc)
	if action != FaultDeliver {
		// Every injected fault — original sends and retransmissions alike,
		// chaos schedules included — leaves a flight-recorder event, so a
		// post-mortem dump shows which link was sabotaged and how.
		flight.Record(m.from, telemetry.FlightFault, int64(m.from), int64(to), int64(m.seq), int64(action))
	}
	switch action {
	case FaultDrop:
		return 0, true, false
	case FaultDuplicate:
		return 2, false, false
	case FaultCorrupt:
		if len(m.data) > 0 {
			m.data = append([]byte(nil), m.data...)
			if p := c.cfg.Corrupt; p != nil {
				p.apply(m.data, fc)
			} else {
				m.data[len(m.data)/2] ^= 0x20
			}
		} else {
			m.sum ^= 0xdeadbeef
		}
		return 1, false, false
	case FaultDelay:
		m.delay += delay
		return 1, false, false
	case FaultKill:
		if attempt == 0 {
			return 0, false, true
		}
	}
	return 1, false, false
}
