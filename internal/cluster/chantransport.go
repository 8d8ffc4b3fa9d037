package cluster

// chanTransport is the original in-process fabric: every rank is a
// goroutine of one process, each (from, to) link is a buffered Go
// channel, and the barrier control plane is a shared condition variable.
// This is the default Transport and its observable behavior is exactly
// what the pre-Transport cluster did — the virtual-time numbers of every
// experiment are reproduced bit-for-bit.

import (
	"fmt"
	"math"
	"sync"
	"time"

	"hzccl/internal/bufpool"
)

type chanTransport struct {
	cfg    Config
	mailMu sync.Mutex
	mail   map[[2]int]chan message
	// done[i] is set once rank i's body has returned; its channels are
	// closed so blocked receivers fail instead of hanging.
	done []bool

	barrierMu   sync.Mutex
	barrierCond *sync.Cond
	// live[i] is false once rank i was evicted by a membership shrink:
	// consensus generations stop waiting on it. exitedRank[i] is set once
	// rank i's body returned — a *live* rank exiting aborts the
	// generations it never joined (it will never arrive).
	live       []bool
	exitedRank []bool
	// agreeSeq[i] is rank i's consensus-call ordinal. Every rank calls
	// agree in identical program order, so rank r's k-th call joins
	// generation k; gens holds each generation's state until its waiters
	// have left.
	agreeSeq []int
	gens     map[int]*chanGen

	// retx holds the per-link sender-side retransmit windows of the
	// reliable-delivery layer (reliable.go).
	retx retxStore
}

// chanGen is one consensus generation: the contributions folded so far
// and, once done, the latched results (late leavers must not be affected
// by ranks already entering the next generation).
type chanGen struct {
	tolerant bool
	joined   []bool
	in       int
	maxClk   float64
	maxVal   int
	dead     uint64
	done     bool
	aborted  bool
	outClk   float64
	outVal   int
	outDead  uint64
}

func newChanTransport() *chanTransport {
	t := &chanTransport{mail: make(map[[2]int]chan message)}
	t.barrierCond = sync.NewCond(&t.barrierMu)
	return t
}

func (t *chanTransport) LocalRank() (int, bool) { return 0, false }

// epochHint: all ranks share this process's clock, so no alignment is
// needed.
func (t *chanTransport) epochHint() (time.Time, bool) { return time.Time{}, false }

func (t *chanTransport) Close() error { return nil }

func (t *chanTransport) bind(cfg Config) error {
	t.cfg = cfg
	t.done = make([]bool, cfg.Ranks)
	t.live = make([]bool, cfg.Ranks)
	for i := range t.live {
		t.live[i] = true
	}
	t.exitedRank = make([]bool, cfg.Ranks)
	t.agreeSeq = make([]int, cfg.Ranks)
	t.gens = make(map[int]*chanGen)
	t.retx.window = cfg.RetxWindow
	return nil
}

func (t *chanTransport) chanFor(from, to int) chan message {
	key := [2]int{from, to}
	t.mailMu.Lock()
	defer t.mailMu.Unlock()
	if t.done[from] {
		// The sender already exited; give the receiver a closed channel.
		ch, ok := t.mail[key]
		if !ok {
			ch = make(chan message)
			close(ch)
			t.mail[key] = ch
		}
		return ch
	}
	ch, ok := t.mail[key]
	if !ok {
		// Eager-send buffer: deep enough that pipelined protocols (e.g.
		// segmented rings) never block the sender in lockstep patterns.
		ch = make(chan message, 64)
		t.mail[key] = ch
	}
	return ch
}

// send hands the receiver a pooled copy of the payload, one shared by every
// delivery of a duplicated message: the receiver ends up owning what it is
// handed, and the sender keeps its buffer.
func (t *chanTransport) send(r *Rank, to int, m message, copies int) error {
	own := bufpool.Bytes(len(m.data))
	r.Quiesce(func() { copy(own, m.data) })
	m.data = own
	ch := t.chanFor(m.from, to)
	for i := 0; i < copies; i++ {
		ch <- m
	}
	return nil
}

// recv pulls the next message from the link's channel, honouring the
// wall-clock timeout and the cooperative-abort channel.
func (t *chanTransport) recv(from, to int, timeout time.Duration, abort <-chan struct{}) (message, bool, error) {
	ch := t.chanFor(from, to)
	if timeout <= 0 && abort == nil {
		m, ok := <-ch
		return m, ok, nil
	}
	var timeoutC <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	// A nil channel blocks forever, so absent cases simply never fire.
	select {
	case m, ok := <-ch:
		return m, ok, nil
	case <-timeoutC:
		return message{}, false, ErrRecvTimeout
	case <-abort:
		return message{}, false, errAborted
	}
}

func (t *chanTransport) recordRetx(from, to, seq, epoch int, data []byte, sum uint32) {
	t.retx.record(from, to, seq, epoch, data, sum)
}

// retransmit reads the sender's replay window directly: all ranks share
// one address space, so a NACK is just a map lookup. The window even
// survives the sender's exit, letting a receiver salvage messages a
// finished rank sent before leaving.
func (t *chanTransport) retransmit(from, to, seq, epoch int) ([]byte, uint32, error) {
	return t.retx.lookup(from, to, seq, epoch)
}

func (t *chanTransport) clearRetx(rank int) { t.retx.clear(rank) }

// closeRank marks rank as finished and closes every mailbox it feeds. It
// also re-checks open consensus generations: a generation missing a live
// exited rank can never complete, so its waiters abort (or, in a
// tolerant membership round, complete without the dead member).
func (t *chanTransport) closeRank(rank int) {
	t.mailMu.Lock()
	t.done[rank] = true
	for key, ch := range t.mail {
		if key[0] == rank {
			close(ch)
		}
	}
	t.mailMu.Unlock()

	t.barrierMu.Lock()
	t.exitedRank[rank] = true
	for _, g := range t.gens {
		t.checkGen(g)
	}
	t.barrierCond.Broadcast()
	t.barrierMu.Unlock()
}

// setMembers restricts the consensus plane to the surviving ranks after
// a membership shrink. All survivors call it with the identical list, so
// concurrent calls are idempotent.
func (t *chanTransport) setMembers(members []int) {
	t.barrierMu.Lock()
	for i := range t.live {
		t.live[i] = false
	}
	for _, m := range members {
		if m >= 0 && m < len(t.live) {
			t.live[m] = true
		}
	}
	for _, g := range t.gens {
		t.checkGen(g)
	}
	t.barrierCond.Broadcast()
	t.barrierMu.Unlock()
}

// checkGen (caller holds barrierMu) decides whether a generation can
// complete or must abort, given the current live/exited state.
func (t *chanTransport) checkGen(g *chanGen) {
	if g.done {
		return
	}
	liveN, missing := 0, 0
	var missingBits uint64
	for i := 0; i < t.cfg.Ranks; i++ {
		if !t.live[i] {
			continue
		}
		liveN++
		if t.exitedRank[i] && !g.joined[i] {
			missing++
			missingBits |= rankBit(i)
		}
	}
	if !g.tolerant {
		if g.in >= liveN {
			t.completeGen(g, liveN)
		} else if missing > 0 {
			// A live member exited without joining: the classic round can
			// never complete. Latch the dead set so every waiter reports
			// the same failed rank.
			g.aborted = true
			g.outDead = g.dead | missingBits
			g.done = true
			t.barrierCond.Broadcast()
		}
		return
	}
	// Membership round: completes once every live member that can still
	// arrive has arrived; exited members join the dead set instead of
	// blocking the round.
	if g.in > 0 && g.in >= liveN-missing {
		g.dead |= missingBits
		t.completeGen(g, liveN-missing)
	}
}

// completeGen (caller holds barrierMu) latches a generation's results:
// leave clock = max contribution + the α·ceil(log2 n) tree cost over the
// n actual participants.
func (t *chanTransport) completeGen(g *chanGen, n int) {
	cost := 0.0
	if n > 1 {
		cost = t.cfg.Latency.Seconds() * math.Ceil(math.Log2(float64(n)))
	}
	g.outClk = g.maxClk + cost
	g.outVal = g.maxVal
	g.outDead = g.dead
	g.done = true
	t.barrierCond.Broadcast()
}

// agree is the shared-memory consensus plane: rank's k-th call joins
// generation k (identical program order across ranks), contributions are
// folded into the generation, and everyone still live leaves together
// with the latched results.
func (t *chanTransport) agree(rank int, clock float64, v int, propose uint64, tolerant bool) (float64, int, uint64, error) {
	var deadline time.Time
	if d := t.cfg.agreeTimeout(); d > 0 {
		deadline = time.Now().Add(d)
		wake := time.AfterFunc(d, func() {
			t.barrierMu.Lock()
			t.barrierCond.Broadcast()
			t.barrierMu.Unlock()
		})
		defer wake.Stop()
	}
	t.barrierMu.Lock()
	genID := t.agreeSeq[rank]
	t.agreeSeq[rank]++
	g, ok := t.gens[genID]
	if !ok {
		g = &chanGen{tolerant: tolerant, joined: make([]bool, t.cfg.Ranks), maxClk: math.Inf(-1)}
		t.gens[genID] = g
	}
	g.joined[rank] = true
	g.in++
	if clock > g.maxClk {
		g.maxClk = clock
	}
	if v > g.maxVal {
		g.maxVal = v
	}
	g.dead |= propose
	t.checkGen(g)
	for !g.done {
		if !deadline.IsZero() && time.Now().After(deadline) {
			t.barrierMu.Unlock()
			return 0, 0, 0, fmt.Errorf("%w: barrier, peers missing after %v", ErrRecvTimeout, t.cfg.agreeTimeout())
		}
		t.barrierCond.Wait()
	}
	leave, agreed, dead, aborted := g.outClk, g.outVal, g.outDead, g.aborted
	// Trim completed generations: every waiter holds its own *chanGen, so
	// dropping old map entries is safe.
	delete(t.gens, genID-2)
	t.barrierMu.Unlock()
	if aborted {
		return 0, 0, dead, fmt.Errorf("%w: barrier aborted, a rank exited before reaching it", rankFailedFromBits(dead, nil))
	}
	return leave, agreed, dead, nil
}

// retxStore is the per-link sender-side replay buffer shared by both
// transports: the in-process fabric keeps every rank's windows here, the
// TCP fabric only its local rank's (peers are NACKed over the wire).
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
