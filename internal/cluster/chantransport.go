package cluster

// chanTransport is the original in-process fabric: every rank is a
// goroutine of one process, and each (from, to) link is a pair of
// buffered Go channels, one for messages and one for control records.
// This is the default Transport and its observable behavior is exactly
// what the pre-Transport cluster did — the virtual-time numbers of every
// experiment are reproduced bit-for-bit.

import (
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

	// retx is the cluster's replay windows (every rank's, one address
	// space), bound at bind.
	retx *retxStore
}

// chanLink is one from→to link: its buffered message and control-record
// channels and the receiver's reusable deadline.
type chanLink struct {
	ch    chan message
	ctl   chan ctlRecord
	timer linkTimer
}

func newChanTransport() *chanTransport {
	return &chanTransport{mail: make(map[[2]int]*chanLink)}
}

func (t *chanTransport) LocalRank() (int, bool) { return 0, false }

// epochHint: all ranks share this process's clock, so no alignment is
// needed.
func (t *chanTransport) epochHint() (time.Time, bool) { return time.Time{}, false }

func (t *chanTransport) Close() error { return nil }

func (t *chanTransport) bind(cfg Config, retx *retxStore) error {
	t.cfg, t.retx = cfg, retx
	t.done = make([]bool, cfg.Ranks)
	return nil
}

func (t *chanTransport) link(from, to int) *chanLink {
	key := [2]int{from, to}
	t.mailMu.Lock()
	defer t.mailMu.Unlock()
	l, ok := t.mail[key]
	if !ok {
		// A round moves at most one record along a link, and a member
		// sends its next only after the release, so sendCtl never blocks.
		l = &chanLink{ch: make(chan message, LinkDepth), ctl: make(chan ctlRecord, 4)}
		if t.done[from] {
			// The sender already exited; give the receiver closed channels.
			l.close()
		}
		t.mail[key] = l
	}
	return l
}

func (l *chanLink) close() {
	close(l.ch)
	close(l.ctl)
}

// send hands the receiver a pooled copy of the payload, one shared by every
// delivery of a duplicated message: the receiver ends up owning what it is
// handed, and the sender keeps its buffer.
func (t *chanTransport) send(to int, m message, copies int) error {
	own := bufpool.Bytes(len(m.data))
	copy(own, m.data)
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

// sendCtl buffers a control record on the link; the sender is alive, so
// its channels are open.
func (t *chanTransport) sendCtl(from, to int, c ctlRecord) error {
	t.link(from, to).ctl <- c
	return nil
}

// recvCtl pulls the next control record from the link.
func (t *chanTransport) recvCtl(from, to int, timeout time.Duration) (ctlRecord, bool, error) {
	l := t.link(from, to)
	return await(&l.timer, l.ctl, timeout, nil)
}

// retransmit reads the sender's replay window directly: all ranks share
// one address space, so a NACK is just a map lookup. The window even
// survives the sender's exit, letting a receiver salvage messages a
// finished rank sent before leaving.
func (t *chanTransport) retransmit(from, to, seq, epoch int) ([]byte, uint32, error) {
	return t.retx.lookup(from, to, seq, epoch)
}

// closeRank marks rank as finished and closes every link it feeds, so a
// peer waiting on it for a message or a control record stops waiting.
func (t *chanTransport) closeRank(rank int) {
	t.mailMu.Lock()
	defer t.mailMu.Unlock()
	t.done[rank] = true
	for key, l := range t.mail {
		if key[0] == rank {
			l.close()
		}
	}
}
