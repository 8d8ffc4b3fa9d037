package cluster

// Reliable delivery: NACK-driven retransmission over the faulty fabric.
//
// With Config.Reliable set, every sender keeps a bounded per-link window
// of recently sent messages (pristine copies, recorded before the fault
// hook can damage them). When the receiver detects a damaged or missing
// message — checksum mismatch, sequence gap, or receive timeout — it
// issues a NACK and the sender replays the message from its window. On
// the in-process fabric the NACK is a direct lookup into the sender's
// shared-memory window; on the TCP fabric it is a control frame answered
// with a replay frame (see tcptransport.go) — the recovery protocol
// itself is transport-agnostic. A replay passes through the fault hook
// again (with FaultContext.Attempt set), so recovery itself can fail;
// each failed attempt charges an exponentially growing backoff, and after
// Config.RetryBudget attempts Recv gives up with
// ErrRetryBudgetExhausted. Duplicate sequence numbers are silently
// deduplicated instead of erroring.
//
// All recovery traffic is charged through the same (α, β) virtual-time
// model as regular traffic, on the receiver (the rank that actually
// stalls): a NACK is a control message costing α, the replay costs
// α + bytes/β (plus any injected delay), and backoff is charged to MPI.
// Degraded-fabric runs therefore show physically meaningful slowdowns in
// BreakdownShares and Chrome traces.
//
// Buffer ownership: the retransmit window NEVER aliases a caller's (or a
// pool's) buffer. retxStore.record copies the payload into a private
// allocation at Send time — the one copy a reliable TCP send makes — and
// lookups hand replays out as fresh copies, so a sender overwriting or
// recycling its buffer the moment Send returns cannot corrupt a later
// retransmission.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"hzccl/internal/telemetry"
)

// Reliable-delivery errors.
var (
	// ErrRetryBudgetExhausted means a message could not be recovered
	// within Config.RetryBudget NACK/replay attempts.
	ErrRetryBudgetExhausted = errors.New("cluster: retransmission retry budget exhausted")
	// ErrRetransmitGone means the sender's retransmit window no longer
	// holds the NACKed message (it was evicted by newer traffic).
	ErrRetransmitGone = errors.New("cluster: message evicted from retransmit window")
)

// errNotYetSent reports that a NACKed sequence number has not been sent
// at all: the sender is merely slow, so the receiver should keep waiting
// rather than treat the message as lost.
var errNotYetSent = errors.New("cluster: message not yet sent")

// retxEntry is one replayable message: the pristine payload and its
// original checksum.
type retxEntry struct {
	data []byte
	sum  uint32
}

// retxWindow is the sender-side bounded replay buffer for one link.
type retxWindow struct {
	mu    sync.Mutex
	epoch int
	next  int // next sequence number to be recorded
	buf   map[int]retxEntry
}

// recvReliable is the recovering receive path (Config.Reliable).
func (r *Rank) recvReliable(from int) ([]byte, error) {
	waitStart := time.Now()
	timeouts := 0
	for {
		want := r.recvSeq[from]
		if m, ok := r.takePending(from, want); ok {
			return r.deliverReliable(m, from, want, waitStart)
		}
		abort := r.abortWatch()
		if r.failFast {
			if d := r.confirmedPeer(from); d >= 0 {
				return nil, r.rankFailedErr(d)
			}
		}
		m, ok, err := r.c.tr.recv(from, r.phys, r.c.cfg.RecvTimeout, abort)
		if errors.Is(err, errAborted) {
			// Cooperative abort: a rank was confirmed dead while we waited.
			// If it is another rank, bail out typed; if it is `from` itself,
			// fall through to the sender-exited salvage path.
			if d := r.confirmedPeer(from); d >= 0 {
				return nil, r.rankFailedErr(d)
			}
			ok, err = false, nil
		}
		if err != nil {
			// Timeout: the message was likely dropped in flight — recover
			// from the sender's window. If it simply has not been sent yet
			// the sender is slow, so wait again (bounded by the budget).
			r.noteSuspect(from)
			data, rerr := r.recover(from, want, err)
			if rerr == nil {
				r.unsuspect(from)
				r.recvSeq[from] = want + 1
				return data, nil
			}
			if errors.Is(rerr, errNotYetSent) {
				timeouts++
				if timeouts > r.c.cfg.RetryBudget {
					return nil, fmt.Errorf("%w: from rank %d after %d waits of %v", ErrRecvTimeout, from, timeouts, r.c.cfg.RecvTimeout)
				}
				continue
			}
			return nil, rerr
		}
		if !ok {
			// Sender exited; on the in-process fabric its replay window
			// survives, so messages it sent before exiting can still be
			// salvaged.
			r.c.det.confirm(from, nil)
			data, rerr := r.recover(from, want, ErrPeerFailed)
			if rerr == nil {
				r.recvSeq[from] = want + 1
				return data, nil
			}
			return nil, r.peerFailedErr(from)
		}
		r.unsuspect(from)
		r.chargeArrival(m)
		if m.epoch != r.epoch {
			if m.epoch < r.epoch {
				mDedups.Inc() // stale traffic from an abandoned attempt
				flight.Record(r.phys, telemetry.FlightDedup, int64(m.from), int64(r.phys), int64(m.seq), int64(m.epoch))
				continue
			}
			return nil, fmt.Errorf("cluster: rank %d got epoch %d message from rank %d while in epoch %d (AdvanceEpoch must be globally synchronized)",
				r.phys, m.epoch, from, r.epoch)
		}
		switch {
		case m.seq < want:
			mDedups.Inc() // duplicate delivery: silently dedup
			flight.Record(r.phys, telemetry.FlightDedup, int64(m.from), int64(r.phys), int64(m.seq), int64(m.epoch))
			continue
		case m.seq > want:
			// A gap means `want` was dropped: retain the later message for
			// in-order delivery and recover the missing one right away.
			r.stashPending(from, m)
			data, rerr := r.recover(from, want, fmt.Errorf("%w: from rank %d, expected seq %d got %d", ErrMessageLost, from, want, m.seq))
			if rerr != nil {
				return nil, rerr
			}
			r.recvSeq[from] = want + 1
			return data, nil
		}
		return r.deliverReliable(m, from, want, waitStart)
	}
}

// deliverReliable verifies an in-sequence message and, on corruption,
// drives the NACK/replay recovery.
func (r *Rank) deliverReliable(m message, from, want int, waitStart time.Time) ([]byte, error) {
	data, err := r.verifyPayload(m, from)
	if err == nil {
		r.unsuspect(from)
		r.recvSeq[from] = want + 1
		r.noteRecv(m, waitStart)
		return data, nil
	}
	if !errors.Is(err, ErrMessageCorrupt) {
		return nil, err
	}
	data, rerr := r.recover(from, want, err)
	if rerr != nil {
		return nil, rerr
	}
	r.recvSeq[from] = want + 1
	return data, nil
}

// recover drives the NACK → replay → backoff loop for one damaged or
// missing message and returns its recovered payload.
func (r *Rank) recover(from, want int, cause error) ([]byte, error) {
	cfg := r.c.cfg
	alpha := cfg.Latency.Seconds()
	for attempt := 1; attempt <= cfg.RetryBudget; attempt++ {
		mNacks.Inc()
		flight.Record(r.phys, telemetry.FlightNack, int64(from), int64(r.phys), int64(want), int64(attempt))
		// The NACK control message flies back to the sender: one α.
		r.Elapse(CatMPI, alpha)
		data, sum, err := r.c.tr.retransmit(from, r.phys, want, r.epoch)
		if err != nil {
			if errors.Is(err, errNotYetSent) {
				return nil, errNotYetSent
			}
			return nil, fmt.Errorf("%w (root cause: %v)", err, cause)
		}
		m := message{data: data, sentAt: r.now, from: from, seq: want, sum: sum, epoch: r.epoch}
		// The replay crosses the same faulty fabric as the original.
		_, dropped, _ := r.c.applyFaultAttempt(&m, r.phys, attempt, -1)
		if !dropped {
			mRetransmits.Inc()
			flight.Record(r.phys, telemetry.FlightRetransmit, int64(from), int64(r.phys), int64(want), int64(attempt))
			if tr := r.c.trace; tr != nil {
				tr.recordInstant(Instant{
					Name: fmt.Sprintf("retransmit %d>%d seq %d", from, r.phys, want),
					Rank: r.phys, Ts: r.wallNow(),
				})
			}
			r.chargeArrival(m) // α + bytes/β (+ injected delay)
			var s uint32
			r.Quiesce(func() { s = checksum(m.data) })
			if s == m.sum {
				return m.data, nil
			}
		}
		// Failed attempt: exponential backoff before the next NACK.
		r.Elapse(CatMPI, cfg.RetryBackoff.Seconds()*float64(uint64(1)<<uint(attempt-1)))
	}
	return nil, fmt.Errorf("%w: link %d→%d seq %d after %d attempts (root cause: %w)",
		ErrRetryBudgetExhausted, from, r.phys, want, cfg.RetryBudget, cause)
}
