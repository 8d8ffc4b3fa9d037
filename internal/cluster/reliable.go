package cluster

// Reliable delivery: NACK-driven retransmission over the faulty fabric.
//
// Strict and reliable delivery share one receive loop, Rank.Recv: it
// takes a held-back message or waits on the link, honours cooperative
// abort, keeps the suspicion bookkeeping, and checks epoch, sequence and
// checksum once for both modes. Config.Reliable decides only what a
// violation does. Strict delivery returns it typed. Reliable delivery
// recovers it: every sender's pristine copies (recorded by Send before
// the fault hook can damage them) sit in the cluster's bounded per-link
// replay window, and the receiver NACKs the damaged or missing message —
// checksum mismatch, sequence gap, receive timeout or exited sender —
// and takes the replay. On the in-process fabric the NACK is a direct
// lookup in the window; on the TCP fabric it is a control frame the
// sender's process answers from its own window with a replay frame (see
// tcptransport.go). A replay passes through the fault hook again (with
// FaultContext.Attempt set), so recovery itself can fail; each failed
// attempt charges an exponentially growing backoff, and after
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
			if r.intact(m) {
				return m.data, nil
			}
		}
		// Failed attempt: exponential backoff before the next NACK.
		r.Elapse(CatMPI, cfg.RetryBackoff.Seconds()*float64(uint64(1)<<uint(attempt-1)))
	}
	return nil, fmt.Errorf("%w: link %d→%d seq %d after %d attempts (root cause: %w)",
		ErrRetryBudgetExhausted, from, r.phys, want, cfg.RetryBudget, cause)
}

// retxStore is a cluster's per-link sender-side replay windows: every
// rank's on the in-process fabric, the local rank's on the TCP fabric
// (peers NACK it over the wire).
type retxStore struct {
	mu     sync.Mutex
	window int
	m      map[[2]int]*retxWindow
}

func (s *retxStore) windowFor(from, to int) *retxWindow {
	key := [2]int{from, to}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[[2]int]*retxWindow)
	}
	w, ok := s.m[key]
	if !ok {
		w = &retxWindow{buf: make(map[int]retxEntry)}
		s.m[key] = w
	}
	return w
}

// record stores a pristine copy of an outgoing message, evicting entries
// older than the configured window.
func (s *retxStore) record(from, to, seq, epoch int, data []byte, sum uint32) {
	w := s.windowFor(from, to)
	w.mu.Lock()
	defer w.mu.Unlock()
	if epoch != w.epoch {
		// First send of a new epoch: old-epoch entries are unreachable.
		w.epoch = epoch
		w.buf = make(map[int]retxEntry)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	w.buf[seq] = retxEntry{data: cp, sum: sum}
	w.next = seq + 1
	if old := seq - s.window; old >= 0 {
		delete(w.buf, old)
	}
}

// lookup fetches a fresh copy of a windowed message for replay.
func (s *retxStore) lookup(from, to, seq, epoch int) (data []byte, sum uint32, err error) {
	w := s.windowFor(from, to)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.epoch < epoch || seq >= w.next {
		return nil, 0, errNotYetSent
	}
	if w.epoch > epoch {
		// The sender already moved to a newer epoch; the old attempt's
		// traffic is unrecoverable.
		mRetxEvictions.Inc()
		return nil, 0, fmt.Errorf("%w: link %d→%d seq %d (sender in epoch %d, wanted %d)", ErrRetransmitGone, from, to, seq, w.epoch, epoch)
	}
	e, ok := w.buf[seq]
	if !ok {
		mRetxEvictions.Inc()
		return nil, 0, fmt.Errorf("%w: link %d→%d seq %d (window %d)", ErrRetransmitGone, from, to, seq, s.window)
	}
	cp := make([]byte, len(e.data))
	copy(cp, e.data)
	return cp, e.sum, nil
}

// clear drops every replay window fed by rank `from` (epoch change: the
// retained traffic belongs to an abandoned attempt).
func (s *retxStore) clear(from int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for key := range s.m {
		if key[0] == from {
			delete(s.m, key)
		}
	}
}
