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
	mail   map[[2]int]*chanLink
	// done[i] is set once rank i's body has returned; its channels are
	// closed so blocked receivers fail instead of hanging.
	done []bool

	barrierMu   sync.Mutex
	barrierCond *sync.Cond
	// exitedRank[i] is set once rank i's body returned — a rank exiting
	// aborts the generations whose members it belongs to and never joined
	// (it will never arrive).
	exitedRank []bool
	// agreeSeq[i] is rank i's consensus-call ordinal. Every rank calls
	// agree in identical program order, so rank r's k-th call joins
	// generation k; gens holds each generation's state until its waiters
	// have left.
	agreeSeq []int
	gens     map[int]*chanGen

	// retx is the cluster's replay windows (every rank's, one address
	// space), bound at bind.
	retx *retxStore
}

// chanLink is one from→to link: its buffered channel and the receiver's
// reusable deadline.
type chanLink struct {
	ch    chan message
	timer linkTimer
}

// chanGen is one consensus generation: the members it waits on (the
// creating caller's list), the contributions folded so far and, once
// done, the latched results (late leavers must not be affected by ranks
// already entering the next generation).
type chanGen struct {
	tolerant bool
	live     []bool
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
	t := &chanTransport{mail: make(map[[2]int]*chanLink)}
	t.barrierCond = sync.NewCond(&t.barrierMu)
	return t
}

func (t *chanTransport) LocalRank() (int, bool) { return 0, false }

// epochHint: all ranks share this process's clock, so no alignment is
// needed.
func (t *chanTransport) epochHint() (time.Time, bool) { return time.Time{}, false }

func (t *chanTransport) Close() error { return nil }

func (t *chanTransport) bind(cfg Config, retx *retxStore) error {
	t.cfg, t.retx = cfg, retx
	t.done = make([]bool, cfg.Ranks)
	t.exitedRank = make([]bool, cfg.Ranks)
	t.agreeSeq = make([]int, cfg.Ranks)
	t.gens = make(map[int]*chanGen)
	return nil
}

func (t *chanTransport) link(from, to int) *chanLink {
	key := [2]int{from, to}
	t.mailMu.Lock()
	defer t.mailMu.Unlock()
	l, ok := t.mail[key]
	if !ok {
		l = &chanLink{ch: make(chan message, LinkDepth)}
		if t.done[from] {
			// The sender already exited; give the receiver a closed channel.
			close(l.ch)
		}
		t.mail[key] = l
	}
	return l
}

// send hands the receiver a pooled copy of the payload, one shared by every
// delivery of a duplicated message: the receiver ends up owning what it is
// handed, and the sender keeps its buffer.
func (t *chanTransport) send(r *Rank, to int, m message, copies int) error {
	own := bufpool.Bytes(len(m.data))
	r.Quiesce(func() { copy(own, m.data) })
	m.data = own
	ch := t.link(m.from, to).ch
	for i := 0; i < copies; i++ {
		ch <- m
	}
	return nil
}

// recv pulls the next message from the link's channel.
func (t *chanTransport) recv(from, to int, timeout time.Duration, abort <-chan struct{}) (message, bool, error) {
	l := t.link(from, to)
	return await(&l.timer, l.ch, timeout, abort)
}

// retransmit reads the sender's replay window directly: all ranks share
// one address space, so a NACK is just a map lookup. The window even
// survives the sender's exit, letting a receiver salvage messages a
// finished rank sent before leaving.
func (t *chanTransport) retransmit(from, to, seq, epoch int) ([]byte, uint32, error) {
	return t.retx.lookup(from, to, seq, epoch)
}

// closeRank marks rank as finished and closes every mailbox it feeds. It
// also re-checks open consensus generations: a generation missing an
// exited member can never complete, so its waiters abort (or, in a
// tolerant membership round, complete without the dead member).
func (t *chanTransport) closeRank(rank int) {
	t.mailMu.Lock()
	t.done[rank] = true
	for key, l := range t.mail {
		if key[0] == rank {
			close(l.ch)
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

// checkGen (caller holds barrierMu) decides whether a generation can
// complete or must abort, given its members and the exited ranks.
func (t *chanTransport) checkGen(g *chanGen) {
	if g.done {
		return
	}
	liveN, missing := 0, 0
	var missingBits uint64
	for i, live := range g.live {
		if !live {
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
// generation k (identical program order across ranks), whose first
// caller records the members it waits on; contributions are folded into
// the generation, and every member still live leaves together with the
// latched results.
func (t *chanTransport) agree(rank int, members []int, clock float64, v int, propose uint64, tolerant bool) (float64, int, uint64, error) {
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
		g = &chanGen{tolerant: tolerant, live: make([]bool, t.cfg.Ranks), joined: make([]bool, t.cfg.Ranks), maxClk: math.Inf(-1)}
		for i := range g.live {
			g.live[i] = members == nil
		}
		for _, m := range members {
			g.live[m] = true
		}
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
