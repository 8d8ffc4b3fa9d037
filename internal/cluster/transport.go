package cluster

// Transport abstraction. A Cluster charges time through the (α, β) model
// and owns everything that outlives one message: the integrity checks
// (checksums, sequence numbers, epochs), the one receive loop that
// reports or recovers their violations (Rank.Recv), the senders' replay
// windows, the membership list and the agreement round (Rank.agree). The
// bytes and control records themselves move through a Transport. Two implementations exist:
//
//   - chanTransport (chantransport.go): the original in-process fabric.
//     Every rank is a goroutine of one process and messages move through
//     buffered Go channels. This is the default and its behavior is
//     byte-for-byte what the pre-Transport cluster did, so all
//     virtual-time numbers stay reproducible.
//   - TCPTransport (tcptransport.go): each rank is its own OS process and
//     messages move as length-prefixed frames over a TCP mesh, so the
//     collectives cross real sockets.
//
// The interface is sealed (its methods are unexported): both backends
// live in this package, and the integrity/reliability layers sit above
// the interface so every Transport gets checksums, NACK-driven
// retransmission and chaos injection for free. So does agreement: the
// round behind Barrier, AgreeMax and AgreeDead is written once (agree.go)
// and a fabric only carries its control records. Above the wire the two
// fabrics differ in two places only:
//
//   - how a NACK travels: in-process it is a lookup in the cluster's
//     replay window; over TCP it is a control frame the sender's reader
//     goroutine answers from its own process's window;
//   - the window outliving its sender: the in-process window belongs to
//     the one cluster every rank shares, so a receiver can still salvage
//     what an exited rank sent; a TCP window dies with its process, and
//     the same receive fails typed.
//
// Every wait on a channel that has a deadline or an abort goes through
// await, on the link's reusable timer.

import "time"

// Transport moves framed messages and control records between ranks. It
// keeps no state of a run beyond its links: the replay windows are the
// Cluster's (handed over at bind), and the agreement round, with its
// member list, generations and coordinator, is the Rank's. Implementations are provided by this package (the interface is
// sealed); callers select one via Config.Transport and may hand it to
// multiple API layers, but only the Cluster drives it.
type Transport interface {
	// LocalRank returns (rank, true) when this transport hosts exactly one
	// rank of a multi-process cluster (each peer runs in its own OS
	// process), or (0, false) when all ranks are local goroutines.
	LocalRank() (int, bool)

	// Close releases fabric resources (sockets, listeners). It is safe to
	// call more than once.
	Close() error

	// bind hands the transport the cluster configuration (with defaults
	// applied) and the cluster's replay windows before the run starts.
	// Implementations validate that the configured world size matches
	// their own; retransmit answers from retx.
	bind(cfg Config, retx *retxStore) error

	// send delivers `copies` copies of m, which rank m.from is sending, on
	// the link to `to`. m.data is the sender's caller's buffer, lent for
	// the duration of the call: the transport neither modifies, keeps nor
	// recycles it. A fabric that hands the bytes to another owner (the
	// in-process one, to the receiver) copies them; one that is done with
	// them when the call returns (TCP, a synchronous write) sends them in
	// place.
	send(to int, m message, copies int) error

	// recv returns the next message on the from→to link. ok == false
	// means the sending rank exited (or its connection closed) and the
	// message will never arrive; a timeout > 0 bounds the wall-clock wait
	// and surfaces as ErrRecvTimeout. A non-nil abort channel cancels the
	// wait when closed (cooperative abort on a confirmed rank failure)
	// and surfaces as errAborted; nil means no cancellation.
	recv(from, to int, timeout time.Duration, abort <-chan struct{}) (m message, ok bool, err error)

	// retransmit fetches a replay of the identified message from the
	// sender's replay window: the in-process fabric reads the bound
	// window directly, the TCP fabric NACKs the peer over the wire and
	// waits for its replay frame. It returns errNotYetSent when the
	// sender simply has not sent that sequence number yet, or an
	// ErrRetransmitGone-wrapped error when the window no longer holds it.
	retransmit(from, to, seq, epoch int) (data []byte, sum uint32, err error)

	// sendCtl delivers control record c on the from→to control link. It is
	// immune to injected faults. An error means the link is closed: the
	// peer is gone.
	sendCtl(from, to int, c ctlRecord) error

	// recvCtl returns the next control record on the from→to link. ok ==
	// false means the link closed (the sending rank exited, its connection
	// closed or its side of the job ended) and no record will come; a
	// timeout > 0 bounds the wait and surfaces as ErrRecvTimeout.
	recvCtl(from, to int, timeout time.Duration) (c ctlRecord, ok bool, err error)

	// closeRank marks a local rank's body as returned so peers blocked on
	// recv or recvCtl fail fast instead of hanging.
	closeRank(rank int)

	// epochHint returns the wall-clock instant trace timestamps should be
	// anchored to, when the transport has one that is shared by every
	// process of the mesh (the TCP handshake agrees on the minimum of all
	// ranks' start times). ok == false means the transport has no shared
	// epoch and the cluster anchors to its own creation time.
	epochHint() (time.Time, bool)
}

// linkTimer is the reusable deadline of one link's receiving side. Only
// the link's consumer — the one rank goroutine receiving on it — arms it,
// and every await leaves it stopped and drained, so the next wait re-arms
// it without allocating.
type linkTimer struct{ t *time.Timer }

// await receives the next value from ch. timeout > 0 bounds the wait on
// the link's timer (ErrRecvTimeout); a non-nil abort cancels it when
// closed (errAborted). ok == false means ch is closed and drained.
func await[T any](lt *linkTimer, ch <-chan T, timeout time.Duration, abort <-chan struct{}) (v T, ok bool, err error) {
	if timeout <= 0 && abort == nil {
		v, ok = <-ch
		return v, ok, nil
	}
	// A nil channel blocks forever, so absent cases simply never fire.
	var expired <-chan time.Time
	if timeout > 0 {
		if lt.t == nil {
			lt.t = time.NewTimer(timeout)
		} else {
			lt.t.Reset(timeout)
		}
		defer lt.stop()
		expired = lt.t.C
	}
	select {
	case v, ok = <-ch:
		return v, ok, nil
	case <-expired:
		return v, false, ErrRecvTimeout
	case <-abort:
		return v, false, errAborted
	}
}

// stop disarms the timer and drains a tick that fired while another case
// won, so the next Reset starts clean whatever the toolchain's
// timer-channel semantics (GODEBUG=asynctimerchan=1).
func (lt *linkTimer) stop() {
	if !lt.t.Stop() {
		select {
		case <-lt.t.C:
		default:
		}
	}
}
