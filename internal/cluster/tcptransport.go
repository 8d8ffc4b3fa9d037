package cluster

// TCPTransport: the real-socket backend. Each rank of the cluster is its
// own OS process; point-to-point messages travel as length-prefixed
// frames over a full TCP mesh (one connection per rank pair, dialed by
// the higher rank, accepted by the lower). Everything the in-process
// fabric models stays live on the wire: the crc32c checksum, sequence
// number, epoch, virtual send time and injected delay all travel inside
// the frame, so integrity checking, the (α, β) clock model, fault
// injection and NACK-driven recovery behave identically — except that a
// NACK here is an actual control frame answered by the sender's process
// with a replay frame. The agreement round (agree.go) is the same on both
// fabrics; here its control records travel as agree and release frames.
//
// Wire protocol (all integers little-endian):
//
//	handshake   "hZCC" ver=4 | u32 rank | u32 world | u64 epochNanos   (both directions)
//	frame       u32 length | u8 type | body
//	  data      u32 job | u32 seq | u32 epoch | u32 sum | f64 sentAt | f64 delay | u64 trace | payload
//	  nack      u32 job | u32 seq | u32 epoch
//	  retx      u32 job | u8 status | u32 seq | u32 epoch | u32 sum | payload
//	  agree     u32 job | u32 gen | u8 flags | f64 clock | i64 value | u64 dead
//	  release   u32 job | u32 gen | u8 flags | f64 clock | i64 value | u64 dead
//	  job       u32 job | u8 kind | payload
//
// The frame length covers everything after the length field itself.
//
// Version 2 extended version 1 in two places, both for distributed
// tracing: the handshake carries the sender's start time (UnixNano), and
// every process anchors its trace timestamps to the minimum start time
// observed across the mesh — the full mesh guarantees every process sees
// every other's epoch, so the minimum is identical everywhere and merged
// per-process traces line up without a clock-sync protocol. Data frames
// additionally carry the sender's 64-bit collective trace ID, so a
// receiving process can pair its delivery with the remote send.
//
// Version 3 made the control plane failure-aware for elastic
// membership: agree/release frames carry a flags byte (bit 0 = tolerant
// membership round; bit 1, on a release only, = a classic round that lost
// a member, which the bitmap cannot name beyond rank 63) and a u64
// dead-set bitmap of physical ranks; the coordinator is re-elected when
// its connection closes (agree.go). A reader goroutine that
// observes its connection reset reports the peer to the failure detector
// (Config.onPeerDown), which is how a remote process crash feeds
// cooperative abort and shrink-and-continue.
//
// Version 4 multiplexes *jobs* over one mesh: every frame carries a u32
// job ID, and each job runs on its own session (Session) with private
// sequence/epoch space, replay windows and consensus generations — so a
// long-lived daemon executes many collectives, even concurrently, over
// connections handshaked exactly once. Job 0 is the transport's built-in
// session, which TCPTransport embeds; single-job users never see the
// machinery. A new `job` frame kind carries daemon control traffic
// (submit/start/done) outside any session, delivered to the handler
// registered with SetJobHandler; its kind 0 is reserved for the internal
// end-of-session broadcast that closes the job's mailboxes on every
// peer.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hzccl/internal/bufpool"
	"hzccl/internal/telemetry"
)

// TCP protocol constants.
const (
	tcpMagic   = "hZCC"
	tcpVersion = 4

	// tcpHelloLen is the handshake size: magic, version, rank, world,
	// epoch nanos.
	tcpHelloLen = 4 + 1 + 4 + 4 + 8

	// tcpDataHdrLen is the data-frame body prefix after the type byte:
	// job, seq, epoch, sum, sentAt, delay, trace.
	tcpDataHdrLen = 4 + 4 + 4 + 4 + 8 + 8 + 8

	frameData    = 1
	frameNack    = 2
	frameRetx    = 3
	frameAgree   = 4
	frameRelease = 5
	frameJob     = 6

	// retxOK/retxNotYetSent/retxGone are the status codes of a retx frame.
	retxOK         = 0
	retxNotYetSent = 1
	retxGone       = 2

	// maxFrameBytes bounds a single frame (1 GiB): anything larger is a
	// corrupted length prefix, not a payload this system produces.
	maxFrameBytes = 1 << 30

	// defaultJob is the job ID of the transport's built-in session; it is
	// reserved and cannot be claimed through Session.
	defaultJob = 0

	// jobByeKind is the reserved job-frame kind a session broadcasts when
	// it ends, so peers close that job's mailboxes instead of blocking.
	jobByeKind = 0
)

// Flight-recorder phase codes of FlightJob events recorded by sessions.
const (
	flightJobOpen  = 0
	flightJobClose = 1
)

// ErrTransportClosed is returned by TCP transport operations after the
// local endpoint shut down.
var ErrTransportClosed = errors.New("cluster: tcp transport closed")

// TCPOptions configures a TCPTransport.
type TCPOptions struct {
	// Rank is this process's rank in [0, len(Peers)).
	Rank int
	// Peers lists every rank's listen address ("host:port"), indexed by
	// rank. All processes must pass the same list in the same order.
	Peers []string
	// DialTimeout bounds the total time spent forming the mesh (dialing
	// lower ranks, accepting higher ones). Peers start at different
	// moments, so dials are retried with backoff until the deadline.
	// 0 selects 15s.
	DialTimeout time.Duration
	// Listener, when non-nil, is used instead of listening on
	// Peers[Rank]. Tests use it to grab ephemeral ports (":0") before the
	// peer list is assembled.
	Listener net.Listener
}

// tcpCtlBodyLen is the control-frame body after the type byte: job, gen,
// flags, clock, value, dead bitmap.
const tcpCtlBodyLen = 4 + 4 + 1 + 8 + 8 + 8

// tcpRetx is a replay answer for an outstanding NACK.
type tcpRetx struct {
	status byte
	seq    uint32
	epoch  uint32
	sum    uint32
	data   []byte
}

// tcpMailbox is the delivery state of one (peer, job) pair: the three
// channels a session's consumers block on, plus the bye fence that frees
// the reader goroutine from delivering into a job that ended locally.
type tcpMailbox struct {
	inbox chan message   // data frames, in arrival order
	retx  chan tcpRetx   // replay answers (one outstanding NACK at a time)
	ctl   chan ctlRecord // agree/release frames

	// timer bounds every wait on the three channels (await). The session's
	// rank is their only consumer and waits on one at a time.
	timer linkTimer

	// bye closes when the job ended on the local side; the reader drops
	// further frames instead of blocking on a consumer that will never
	// come back.
	bye     chan struct{}
	byeOnce sync.Once

	// chansClosed guards against double-closing the delivery channels.
	// Only the peer's reader goroutine — the sole writer — closes them
	// (or the creation path, for mailboxes born after the job/conn died).
	chansClosed bool
	// ended records that the job's local session ended: no consumer of
	// this mailbox is left.
	ended bool
}

func newMailbox(dead bool) *tcpMailbox {
	mb := &tcpMailbox{
		inbox: make(chan message, 64),
		retx:  make(chan tcpRetx, 1),
		ctl:   make(chan ctlRecord, 4),
		bye:   make(chan struct{}),
	}
	if dead {
		mb.markBye()
		mb.closeChans()
	}
	return mb
}

func (mb *tcpMailbox) markBye() { mb.byeOnce.Do(func() { close(mb.bye) }) }

// closeChans closes the delivery channels. Callers must guarantee no
// writer is active: either they are the reader goroutine, the reader has
// exited, or the mailbox was just created.
func (mb *tcpMailbox) closeChans() {
	if mb.chansClosed {
		return
	}
	mb.chansClosed = true
	close(mb.inbox)
	close(mb.retx)
	close(mb.ctl)
}

// peerGoneCap bounds the per-peer memory of ended-job tombstones. Frames
// of an ended job can only be in flight briefly (the bye broadcast and
// the peer's own session end bound them), so FIFO eviction of old
// tombstones is safe long before the cap recycles.
const peerGoneCap = 4096

// tcpPeer is one live connection of the mesh, shared by every job.
type tcpPeer struct {
	rank int
	conn net.Conn

	// wmu serializes frame writes and guards their scratch: whead holds a
	// frame's length prefix and body prefix (the longest is a data
	// frame's), wvec and wbufs the writev vector — kept here because a
	// net.Buffers and what it points at escape to the heap per call
	// otherwise.
	wmu   sync.Mutex
	whead [4 + 1 + tcpDataHdrLen]byte
	wvec  [2][]byte
	wbufs net.Buffers

	mu        sync.Mutex
	mail      map[uint32]*tcpMailbox // per-job delivery state
	gone      map[uint32]bool        // ended jobs: drop their frames (true: the peer said bye)
	goneOrder []uint32
	dead      bool // reader exited; every mailbox is (and will be born) closed
	down      bool // reader exited on a peer failure; set before any detector hears of it
	// byeJob is the job whose bye frame the reader is handling while inBye:
	// jobEnded reports it before the job's detector hears of it, and only
	// endJob, after the detector, closes its mailboxes.
	byeJob uint32
	inBye  bool

	closeOnce sync.Once
}

func (p *tcpPeer) close() {
	p.closeOnce.Do(func() { p.conn.Close() })
}

// mailbox returns the job's delivery state, creating it if needed.
// Consumers of ended jobs or dead connections get a pre-closed mailbox,
// so they observe "peer gone" instead of blocking forever.
func (p *tcpPeer) mailbox(job uint32) *tcpMailbox {
	p.mu.Lock()
	defer p.mu.Unlock()
	if mb, ok := p.mail[job]; ok {
		return mb
	}
	_, gone := p.gone[job]
	mb := newMailbox(gone || p.dead)
	p.mail[job] = mb
	return mb
}

// deliverable returns the mailbox the reader goroutine should deliver a
// job's frame into, or nil when the job ended locally and the frame must
// be dropped.
func (p *tcpPeer) deliverable(job uint32) *tcpMailbox {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return nil
	}
	if _, gone := p.gone[job]; gone {
		return nil
	}
	mb, ok := p.mail[job]
	if !ok {
		mb = newMailbox(false)
		p.mail[job] = mb
	}
	if mb.chansClosed {
		return nil
	}
	return mb
}

// endJob marks a job finished on this peer. closeChannels must be true
// only when called from the peer's reader goroutine (the job-bye frame
// arrived, so the remote side is done writing) or after the reader
// exited; a local session end passes false and relies on the bye fence.
// The mailbox leaves the map once both have happened — the local session
// ended and its channels closed — and not before: until the local end,
// frames the peer sent before its bye stay buffered in the closed
// channels for the session's consumer to drain (receiving from a closed
// channel yields the buffered values first), and until the close the
// reader may still hold it. A lookup after that finds the tombstone and
// gets a pre-closed mailbox. The tombstone FIFO evicts the oldest ended
// jobs' state once the cap recycles.
func (p *tcpPeer) endJob(job uint32, closeChannels bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	said, ok := p.gone[job]
	// closeChannels doubles as "the peer's bye arrived". The tombstone
	// keeps that fact even when no mailbox exists yet, for jobEnded.
	p.gone[job] = said || closeChannels
	p.inBye = p.inBye && !closeChannels
	if !ok {
		p.goneOrder = append(p.goneOrder, job)
		if len(p.goneOrder) > peerGoneCap {
			old := p.goneOrder[0]
			delete(p.gone, old)
			delete(p.mail, old)
			p.goneOrder = p.goneOrder[1:]
		}
	}
	mb, ok := p.mail[job]
	if !ok {
		return
	}
	mb.markBye()
	if closeChannels {
		mb.closeChans()
	} else {
		mb.ended = true
	}
	if mb.ended && mb.chansClosed {
		delete(p.mail, job)
	}
}

// jobEnded reports that the peer's side of the job is over: its bye
// arrived — before or after anything here looked the job up — or its
// connection died.
func (p *tcpPeer) jobEnded(job uint32) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.down || p.dead || p.gone[job] || (p.inBye && p.byeJob == job)
}

// peerBye ends job on the peer's bye in the order the failure detectors
// need, as readLoop does for a dead connection: mark the job ended for
// jobEnded (so a session binding meanwhile still reports the peer), then
// report — the job's detector records the cause — and only then close the
// mailboxes, so a receiver the closing wakes finds that cause and returns
// a *RankFailedError, not a bare ErrPeerFailed.
func (p *tcpPeer) peerBye(job uint32, report func()) {
	p.mu.Lock()
	p.byeJob, p.inBye = job, true
	p.mu.Unlock()
	report()
	p.endJob(job, true)
}

// markDown records that the reader exited on a peer failure. It comes
// before the failure detectors hear of it and markDead after, so a session
// binding in between still reports the peer (see tcpSession.bind).
func (p *tcpPeer) markDown() {
	p.mu.Lock()
	p.down = true
	p.mu.Unlock()
}

// markDead closes every mailbox after the reader goroutine exited: no
// writer remains, and consumers of any job must fail fast. Mailboxes of
// jobs that already ended locally have no consumer left and go.
func (p *tcpPeer) markDead() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dead = true
	for job, mb := range p.mail {
		mb.markBye()
		mb.closeChans()
		if mb.ended {
			delete(p.mail, job)
		}
	}
}

// JobHandler consumes job control frames (kinds ≥ 1) sent by peers via
// SendJob: daemon-level traffic such as submit/start/done messages that
// travels over the mesh but belongs to no session. Handlers run on the
// reader goroutine of the originating connection, which recycles payload
// when the handler returns — copy what must outlive the call; they must not
// block, or that peer's entire connection stalls.
type JobHandler func(from int, job uint32, kind byte, payload []byte)

// TCPTransport is the multi-process Transport. Create one per process
// with NewTCPTransport, hand it to Config.Transport, and Run executes the
// body for this process's rank only. The transport embeds its built-in
// job-0 session, which such a run drives; only Close and closeRank are
// its own, ending the whole mesh rather than one job. Long-lived daemons
// carve additional isolated sessions out of the same mesh with Session.
type TCPTransport struct {
	*tcpSession

	rank int
	n    int

	ln net.Listener

	// peersMu guards peers while the mesh forms (the accept and dial
	// goroutines fill disjoint slots concurrently, and an early abort may
	// close the transport while they run). After NewTCPTransport returns
	// the slice is immutable and read lock-free.
	peersMu sync.Mutex
	peers   []*tcpPeer // indexed by rank; nil at self

	// sessions routes inbound NACK service and lifecycle by job ID.
	// maxJob enforces monotonic job allocation: IDs are never reused, so
	// a late frame of a finished job can never reach a new session.
	sessMu   sync.Mutex
	sessions map[uint32]*tcpSession
	maxJob   uint32

	// jobHandler, when set, consumes daemon job-control frames.
	jobHandler atomic.Value // of JobHandler

	// peerDown, when set, observes mesh-connection death (as opposed to
	// the per-session detectors, which see per-job evidence). A daemon
	// uses it to tear itself down when the fixed service mesh loses a
	// member — job-level elasticity never closes connections, so any
	// conn death is a process death.
	peerDown atomic.Value // of func(rank int, cause error)

	// ownEpochNanos is this process's start time, sent in every handshake;
	// meshEpochNanos tracks the minimum over all epochs observed (our own
	// and every peer's), which every process of the full mesh resolves to
	// the same value — the shared trace-clock anchor.
	ownEpochNanos  int64
	meshEpochNanos atomic.Int64

	closed    chan struct{}
	closeOnce sync.Once
}

// NewTCPTransport listens on Peers[Rank] and forms the full mesh: this
// process dials every lower rank and accepts a connection from every
// higher one, each direction verified by a magic/version/rank/world
// handshake. It blocks until the mesh is complete or DialTimeout expires.
// On failure every resource acquired so far — the listener and any
// already-connected peers — is closed before returning, and a failure on
// one side (accept or dial) aborts the other immediately instead of
// letting it burn out the rest of the deadline.
func NewTCPTransport(opt TCPOptions) (*TCPTransport, error) {
	n := len(opt.Peers)
	if n < 1 {
		return nil, fmt.Errorf("cluster: tcp transport needs a non-empty peer list")
	}
	if opt.Rank < 0 || opt.Rank >= n {
		return nil, fmt.Errorf("cluster: tcp rank %d out of range [0, %d)", opt.Rank, n)
	}
	deadline := time.Now().Add(opt.DialTimeout)
	if opt.DialTimeout == 0 {
		deadline = time.Now().Add(15 * time.Second)
	}
	t := &TCPTransport{
		rank:   opt.Rank,
		n:      n,
		peers:  make([]*tcpPeer, n),
		closed: make(chan struct{}),
	}
	t.tcpSession = &tcpSession{t: t, job: defaultJob}
	t.sessions = map[uint32]*tcpSession{defaultJob: t.tcpSession}
	t.ownEpochNanos = time.Now().UnixNano()
	t.meshEpochNanos.Store(t.ownEpochNanos)
	ln := opt.Listener
	if ln == nil && n > 1 {
		var err error
		ln, err = net.Listen("tcp", opt.Peers[opt.Rank])
		if err != nil {
			return nil, fmt.Errorf("cluster: tcp rank %d listen %s: %w", opt.Rank, opt.Peers[opt.Rank], err)
		}
	}
	t.ln = ln

	// Bound the accept side by the formation deadline. Listeners that can
	// take a deadline (net.TCPListener and any test wrapper exposing
	// SetDeadline) get one directly; for anything else a watchdog closes
	// the listener at the deadline so a mesh that never forms cannot hang
	// Accept forever.
	var disarm func()
	if ln != nil {
		if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
			d.SetDeadline(deadline)
			disarm = func() { d.SetDeadline(time.Time{}) }
		} else {
			timer := time.AfterFunc(time.Until(deadline), func() { ln.Close() })
			disarm = func() { timer.Stop() }
		}
	}

	// Accept from higher ranks and dial lower ranks concurrently: a
	// middle rank must do both at once or two middles can deadlock
	// waiting on each other. The first error closes the transport, which
	// unblocks the sibling goroutine (closed listener, closed conns,
	// abandoned dial retries).
	var wg sync.WaitGroup
	errs := make([]error, 2)
	higher := n - 1 - opt.Rank
	if higher > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[0] = t.acceptPeers(higher); errs[0] != nil {
				t.Close()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if errs[1] = t.dialPeers(opt.Peers, deadline); errs[1] != nil {
			t.Close()
		}
	}()
	wg.Wait()
	if err := firstMeshError(errs); err != nil {
		t.Close()
		return nil, err
	}
	if disarm != nil {
		disarm()
	}
	// The mesh is complete: start one reader per connection.
	for _, p := range t.peers {
		if p != nil {
			go t.readLoop(p)
		}
	}
	return t, nil
}

// firstMeshError picks the error to report from a failed mesh formation,
// preferring the root cause over the sibling goroutine's "closed by our
// own abort" follow-up.
func firstMeshError(errs []error) error {
	var closedErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, net.ErrClosed) {
			if closedErr == nil {
				closedErr = err
			}
			continue
		}
		return err
	}
	return closedErr
}

// addPeer records a freshly handshaked connection, unless the transport
// already aborted — then the connection is closed instead of leaked.
func (t *TCPTransport) addPeer(rank int, conn net.Conn) bool {
	t.peersMu.Lock()
	defer t.peersMu.Unlock()
	select {
	case <-t.closed:
		conn.Close()
		return false
	default:
	}
	t.peers[rank] = newTCPPeer(rank, conn)
	return true
}

// Addr returns the transport's listen address (useful with an ephemeral
// ":0" listener). Nil-listener transports (single rank) return "".
func (t *TCPTransport) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// World returns the mesh size (the number of ranks).
func (t *TCPTransport) World() int { return t.n }

// Done is closed when the transport shuts down — by Close, or by the
// abort path of a failed mesh formation. Long-lived daemons select on it
// to notice the mesh dying under them.
func (t *TCPTransport) Done() <-chan struct{} { return t.closed }

// acceptPeers admits `count` inbound connections, each identifying itself
// as a distinct higher rank. The listener's deadline (set by
// NewTCPTransport) bounds the total wait.
func (t *TCPTransport) acceptPeers(count int) error {
	for admitted := 0; admitted < count; {
		conn, err := t.ln.Accept()
		if err != nil {
			return fmt.Errorf("cluster: tcp rank %d accept (%d/%d peers admitted): %w", t.rank, admitted, count, err)
		}
		rank, err := t.handshake(conn)
		if err != nil {
			conn.Close()
			return fmt.Errorf("cluster: tcp rank %d handshake: %w", t.rank, err)
		}
		if rank <= t.rank || rank >= t.n || t.peers[rank] != nil {
			conn.Close()
			return fmt.Errorf("cluster: tcp rank %d got unexpected hello from rank %d", t.rank, rank)
		}
		if !t.addPeer(rank, conn) {
			return fmt.Errorf("cluster: tcp rank %d accept: %w", t.rank, net.ErrClosed)
		}
		mTransportAccepts.Inc()
		admitted++
	}
	return nil
}

// dialPeers connects to every lower rank, retrying with backoff until the
// deadline (peers start at different times) — or until the transport
// aborts because the accept side already failed.
func (t *TCPTransport) dialPeers(peers []string, deadline time.Time) error {
	for to := 0; to < t.rank; to++ {
		backoff := 10 * time.Millisecond
		for {
			select {
			case <-t.closed:
				return fmt.Errorf("cluster: tcp rank %d dial rank %d abandoned: %w", t.rank, to, net.ErrClosed)
			default:
			}
			conn, err := net.DialTimeout("tcp", peers[to], time.Until(deadline))
			if err == nil {
				rank, herr := t.handshake(conn)
				if herr == nil && rank == to {
					if !t.addPeer(to, conn) {
						return fmt.Errorf("cluster: tcp rank %d dial rank %d: %w", t.rank, to, net.ErrClosed)
					}
					mTransportDials.Inc()
					break
				}
				conn.Close()
				if herr == nil {
					herr = fmt.Errorf("peer identified as rank %d, expected %d", rank, to)
				}
				err = herr
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("cluster: tcp rank %d dial rank %d (%s): %w", t.rank, to, peers[to], err)
			}
			mTransportReconnects.Inc()
			select {
			case <-t.closed:
			case <-time.After(backoff):
			}
			if backoff < 500*time.Millisecond {
				backoff *= 2
			}
		}
	}
	return nil
}

func newTCPPeer(rank int, conn net.Conn) *tcpPeer {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // latency-bound control frames (NACK, agree)
	}
	return &tcpPeer{
		rank: rank,
		conn: conn,
		mail: make(map[uint32]*tcpMailbox),
		gone: make(map[uint32]bool),
	}
}

// handshake exchanges identity with a freshly connected peer (both sides
// send, both verify) and returns the peer's rank. The peer's start time
// folds into the mesh epoch (minimum over all ranks' start times).
func (t *TCPTransport) handshake(conn net.Conn) (int, error) {
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	defer conn.SetDeadline(time.Time{})
	var out [tcpHelloLen]byte
	copy(out[:4], tcpMagic)
	out[4] = tcpVersion
	binary.LittleEndian.PutUint32(out[5:9], uint32(t.rank))
	binary.LittleEndian.PutUint32(out[9:13], uint32(t.n))
	binary.LittleEndian.PutUint64(out[13:21], uint64(t.ownEpochNanos))
	if _, err := conn.Write(out[:]); err != nil {
		return 0, err
	}
	var in [tcpHelloLen]byte
	if _, err := io.ReadFull(conn, in[:]); err != nil {
		return 0, err
	}
	if string(in[:4]) != tcpMagic {
		return 0, fmt.Errorf("bad magic %q", in[:4])
	}
	if in[4] != tcpVersion {
		return 0, fmt.Errorf("protocol version %d, want %d", in[4], tcpVersion)
	}
	rank := int(binary.LittleEndian.Uint32(in[5:9]))
	world := int(binary.LittleEndian.Uint32(in[9:13]))
	if world != t.n {
		return 0, fmt.Errorf("peer rank %d built for a %d-rank world, this one has %d", rank, world, t.n)
	}
	peerEpoch := int64(binary.LittleEndian.Uint64(in[13:21]))
	for {
		cur := t.meshEpochNanos.Load()
		if peerEpoch >= cur || t.meshEpochNanos.CompareAndSwap(cur, peerEpoch) {
			break
		}
	}
	return rank, nil
}

// Session claims an isolated job session on the mesh: a Transport whose
// sequence numbers, epochs, replay windows and control records are
// private to the job, so concurrent jobs on the same
// connections cannot cross-deliver. Job IDs must be allocated
// monotonically increasing (the daemon's scheduler does) and are never
// reused — that is what makes a straggler frame of a finished job
// undeliverable to a future one. Job 0 is the transport's own built-in
// session. Close the session (or let the run's closeRank do it) to
// release its per-peer state and tell peers the job is over.
func (t *TCPTransport) Session(job uint32) (Transport, error) {
	if job == defaultJob {
		return nil, fmt.Errorf("cluster: job %d is the transport's built-in session", defaultJob)
	}
	select {
	case <-t.closed:
		return nil, ErrTransportClosed
	default:
	}
	t.sessMu.Lock()
	defer t.sessMu.Unlock()
	if _, ok := t.sessions[job]; ok {
		return nil, fmt.Errorf("cluster: job %d already has an active session", job)
	}
	if job <= t.maxJob {
		return nil, fmt.Errorf("cluster: job IDs must be monotonically increasing (got %d after %d)", job, t.maxJob)
	}
	t.maxJob = job
	s := &tcpSession{t: t, job: job}
	t.sessions[job] = s
	flight.Record(t.rank, telemetry.FlightJob, int64(job), flightJobOpen, 0, 0)
	return s, nil
}

// sessionFor routes an inbound job-tagged frame to its session, or nil
// when the job is unknown (never opened here, or already closed).
func (t *TCPTransport) sessionFor(job uint32) *tcpSession {
	t.sessMu.Lock()
	defer t.sessMu.Unlock()
	return t.sessions[job]
}

func (t *TCPTransport) dropSession(job uint32) {
	t.sessMu.Lock()
	delete(t.sessions, job)
	t.sessMu.Unlock()
}

// SetJobHandler registers the consumer of job control frames (SendJob).
// Pass nil to drop them. See JobHandler for the threading contract.
func (t *TCPTransport) SetJobHandler(h JobHandler) {
	t.jobHandler.Store(h)
}

// SetPeerDownHandler registers a callback invoked (on the dead
// connection's reader goroutine — it must not block) when a peer's mesh
// connection dies for any reason other than local shutdown. Session
// ends never close connections, so firing means the peer process is
// gone or the link dropped. Pass nil to drop the callback.
func (t *TCPTransport) SetPeerDownHandler(f func(rank int, cause error)) {
	t.peerDown.Store(f)
}

// SendJob sends one job control frame to a peer. Kind 0 is reserved for
// the transport's internal end-of-session broadcast.
func (t *TCPTransport) SendJob(to int, job uint32, kind byte, payload []byte) error {
	if kind == jobByeKind {
		return fmt.Errorf("cluster: job-frame kind %d is reserved", jobByeKind)
	}
	p, err := t.peer(to)
	if err != nil {
		return err
	}
	return p.writeJob(job, kind, payload)
}

// DropConn force-closes the connection to the given peer rank: a test
// hook injecting a TCP connection failure without killing the peer's
// process. Both reader goroutines observe the reset and feed their
// failure detectors, exactly as if the peer had crashed.
func (t *TCPTransport) DropConn(rank int) error {
	p, err := t.peer(rank)
	if err != nil {
		return err
	}
	p.close()
	return nil
}

// Close tears down the mesh: the listener and every connection. Peers
// observe EOF, which surfaces to their collectives as ErrPeerFailed —
// the same semantics as an exited goroutine on the in-process fabric.
func (t *TCPTransport) Close() error {
	t.closeOnce.Do(func() {
		close(t.closed)
		if t.ln != nil {
			t.ln.Close()
		}
		t.peersMu.Lock()
		for _, p := range t.peers {
			if p != nil {
				p.close()
			}
		}
		t.peersMu.Unlock()
	})
	return nil
}

// closeRank is invoked when the local rank's body returns; the whole
// process is done with the fabric. (Daemon jobs run on sessions, whose
// closeRank ends only that job.)
func (t *TCPTransport) closeRank(rank int) {
	if rank == t.rank {
		t.Close()
	}
}

func (t *TCPTransport) peer(rank int) (*tcpPeer, error) {
	if rank < 0 || rank >= t.n || rank == t.rank {
		return nil, fmt.Errorf("%w: tcp peer %d of %d (local rank %d)", ErrBadPeer, rank, t.n, t.rank)
	}
	p := t.peers[rank]
	if p == nil {
		return nil, fmt.Errorf("cluster: tcp rank %d has no connection to rank %d", t.rank, rank)
	}
	return p, nil
}

// tcpSession is one job's view of the mesh: a full Transport whose
// per-run state (config, the bound replay windows, failure callback) is
// private to the job while the sockets underneath are shared with every
// other session.
type tcpSession struct {
	t   *TCPTransport
	job uint32

	cfg Config

	// retx is the bound cluster's replay windows, which peers reach
	// through job-tagged NACK frames serviced by the reader goroutines —
	// hence atomic: those run before bind does, and nil answers "not yet
	// sent" like an empty window.
	retx atomic.Pointer[retxStore]

	// onDown, set at bind, reports a peer whose connection reset to the
	// failure detector. Stored atomically because reader goroutines run
	// before bind does.
	onDown atomic.Value // of func(rank int, cause error)

	endOnce sync.Once
}

// LocalRank reports that exactly one rank lives in this process.
func (s *tcpSession) LocalRank() (int, bool) { return s.t.rank, true }

// epochHint anchors trace wall clocks to the mesh epoch, the minimum
// start time across all ranks — identical in every process once the mesh
// is complete, so merged per-process traces share one time base.
func (s *tcpSession) epochHint() (time.Time, bool) {
	return time.Unix(0, s.t.meshEpochNanos.Load()), true
}

func (s *tcpSession) bind(cfg Config, retx *retxStore) error {
	if cfg.Ranks != s.t.n {
		return fmt.Errorf("cluster: Config.Ranks = %d but the tcp mesh has %d peers", cfg.Ranks, s.t.n)
	}
	s.cfg = cfg
	s.retx.Store(retx)
	if cfg.onPeerDown != nil {
		s.onDown.Store(cfg.onPeerDown)
		// A peer's bye or reset that arrived before the store found no
		// callback and was dropped by the reader. Report every peer whose
		// side of the job has already ended: whichever of the reader's
		// mark-then-load and this store-then-scan comes second sees the
		// other, so the detector hears of it at least once (confirming a
		// rank twice is harmless).
		for _, p := range s.t.peers {
			if p != nil && p.jobEnded(s.job) {
				cfg.onPeerDown(p.rank, fmt.Errorf("%w: rank %d (job %d session ended before bind)", ErrConnReset, p.rank, s.job))
			}
		}
	}
	return nil
}

// Close ends the session: peers are told the job is over (so their
// mailboxes for it close), local per-peer state is released, and the
// job's NACK service starts answering retxGone. The built-in job-0
// session is ended by closing the transport, whose Close shadows this.
func (s *tcpSession) Close() error {
	s.end()
	return nil
}

// closeRank is invoked when the local rank's body returns: this process
// is done with the job (each process hosts exactly one rank), so the
// session ends.
func (s *tcpSession) closeRank(rank int) {
	if rank == s.t.rank {
		s.end()
	}
}

func (s *tcpSession) end() {
	s.endOnce.Do(func() {
		// Unregister first: from here the NACK service answers retxGone
		// and a straggler frame finds no session.
		s.t.dropSession(s.job)
		for _, p := range s.t.peers {
			if p == nil {
				continue
			}
			// Best effort: a dead connection already closed the job's
			// mailboxes on the other side.
			_ = p.writeJob(s.job, jobByeKind, nil)
			p.endJob(s.job, false)
		}
		flight.Record(s.t.rank, telemetry.FlightJob, int64(s.job), flightJobClose, 0, 0)
	})
}

// writeFrame sends one length-prefixed frame: hdr is the body prefix
// (starting with the type byte), payload an optional trailing byte
// string. Writes to one connection are serialized.
func (p *tcpPeer) writeFrame(hdr, payload []byte) error {
	if len(hdr) > len(p.whead)-4 {
		panic(fmt.Sprintf("cluster: %d-byte frame header overflows the write scratch", len(hdr)))
	}
	p.wmu.Lock()
	defer p.wmu.Unlock()
	binary.LittleEndian.PutUint32(p.whead[:4], uint32(len(hdr)+len(payload)))
	head := p.whead[:4+copy(p.whead[4:], hdr)]
	p.wvec = [2][]byte{head, payload}
	p.wbufs = p.wvec[:2]
	if len(payload) == 0 {
		p.wbufs = p.wvec[:1]
	}
	n, err := p.wbufs.WriteTo(p.conn)
	p.wvec[1] = nil // the payload is the caller's again
	mTransportBytesOut.Add(n)
	return err
}

// writeJob sends one job control frame.
func (p *tcpPeer) writeJob(job uint32, kind byte, payload []byte) error {
	var hdr [6]byte
	hdr[0] = frameJob
	binary.LittleEndian.PutUint32(hdr[1:5], job)
	hdr[5] = kind
	return p.writeFrame(hdr[:], payload)
}

// send frames a data message onto the wire, straight from the sender's
// buffer: the write is synchronous, so the bytes are the caller's again
// when it returns and nothing here owns — or recycles — them.
func (s *tcpSession) send(to int, m message, copies int) error {
	p, err := s.t.peer(to)
	if err != nil {
		return err
	}
	var hdr [1 + tcpDataHdrLen]byte
	hdr[0] = frameData
	binary.LittleEndian.PutUint32(hdr[1:5], s.job)
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(m.seq))
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(m.epoch))
	binary.LittleEndian.PutUint32(hdr[13:17], m.sum)
	binary.LittleEndian.PutUint64(hdr[17:25], math.Float64bits(m.sentAt))
	binary.LittleEndian.PutUint64(hdr[25:33], math.Float64bits(m.delay))
	binary.LittleEndian.PutUint64(hdr[33:41], m.trace)
	for i := 0; i < copies; i++ {
		if err := p.writeFrame(hdr[:], m.data); err != nil {
			return fmt.Errorf("cluster: tcp send %d→%d seq %d: %w", m.from, to, m.seq, err)
		}
	}
	return nil
}

// recv waits for the next data frame the peer sent within this job.
func (s *tcpSession) recv(from, to int, timeout time.Duration, abort <-chan struct{}) (message, bool, error) {
	p, err := s.t.peer(from)
	if err != nil {
		return message{}, false, err
	}
	mb := p.mailbox(s.job)
	return await(&mb.timer, mb.inbox, timeout, abort)
}

// retransmit NACKs the sending peer over the wire and waits for its
// replay frame. The sender's reader goroutine services the NACK from its
// local replay window for this job, so recovery works across process
// boundaries. One semantic differs from the in-process fabric: there the
// replay window survives the sender's exit, while here the sender's
// process must still be alive to answer — collectives satisfy this
// naturally because every attempt ends with an AgreeMax before any rank
// leaves.
func (s *tcpSession) retransmit(from, to, seq, epoch int) ([]byte, uint32, error) {
	p, err := s.t.peer(from)
	if err != nil {
		return nil, 0, err
	}
	mb := p.mailbox(s.job)
	var hdr [13]byte
	hdr[0] = frameNack
	binary.LittleEndian.PutUint32(hdr[1:5], s.job)
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(seq))
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(epoch))
	if err := p.writeFrame(hdr[:], nil); err != nil {
		return nil, 0, fmt.Errorf("%w: nack %d→%d seq %d undeliverable (%v)", ErrPeerFailed, from, to, seq, err)
	}
	timeout := s.cfg.RecvTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	a, ok, err := await(&mb.timer, mb.retx, timeout, nil)
	switch {
	case err != nil:
		// The replay itself went missing; the caller's retry budget
		// decides whether to NACK again.
		return nil, 0, errNotYetSent
	case !ok:
		return nil, 0, fmt.Errorf("%w: rank %d closed while replaying seq %d", ErrPeerFailed, from, seq)
	case int(a.seq) != seq || int(a.epoch) != epoch:
		return nil, 0, fmt.Errorf("cluster: tcp replay mismatch from rank %d: got seq %d epoch %d, want %d/%d", from, a.seq, a.epoch, seq, epoch)
	}
	switch a.status {
	case retxOK:
		return a.data, a.sum, nil
	case retxNotYetSent:
		return nil, 0, errNotYetSent
	}
	mRetxEvictions.Inc()
	return nil, 0, fmt.Errorf("%w: link %d→%d seq %d (remote window)", ErrRetransmitGone, from, to, seq)
}

// sendCtl writes a control record as an agree or release frame of the
// job. A write that fails means the connection is gone.
func (s *tcpSession) sendCtl(_, to int, c ctlRecord) error {
	p, err := s.t.peer(to)
	if err != nil {
		return err
	}
	var hdr [1 + tcpCtlBodyLen]byte
	hdr[0] = c.kind
	binary.LittleEndian.PutUint32(hdr[1:5], s.job)
	binary.LittleEndian.PutUint32(hdr[5:9], c.gen)
	hdr[9] = c.flags
	binary.LittleEndian.PutUint64(hdr[10:18], math.Float64bits(c.clock))
	binary.LittleEndian.PutUint64(hdr[18:26], uint64(c.val))
	binary.LittleEndian.PutUint64(hdr[26:34], c.dead)
	return p.writeFrame(hdr[:], nil)
}

// recvCtl waits for the next control frame the peer sent within this job.
// The mailbox closes on the peer's bye or when its connection dies.
func (s *tcpSession) recvCtl(from, _ int, timeout time.Duration) (ctlRecord, bool, error) {
	p, err := s.t.peer(from)
	if err != nil {
		return ctlRecord{}, false, err
	}
	mb := p.mailbox(s.job)
	return await(&mb.timer, mb.ctl, timeout, nil)
}

// errReadLoopStopped is the internal marker for a reader that stopped on
// purpose (local transport shutdown), not because the peer failed.
var errReadLoopStopped = errors.New("cluster: tcp reader stopped by local close")

// classifyPeerErr maps the error that ended a reader goroutine to the
// typed evidence fed into the failure detector: connection reset/EOF
// style failures become ErrConnReset (the peer's process died or the
// link dropped), anything else stays a generic connection failure.
func classifyPeerErr(rank int, err error) error {
	switch {
	case err == nil,
		errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, net.ErrClosed),
		errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.EPIPE):
		return fmt.Errorf("%w: rank %d", ErrConnReset, rank)
	}
	return fmt.Errorf("cluster: tcp rank %d connection failed: %w", rank, err)
}

// readLoop demultiplexes one connection: data frames feed the job's
// inbox, NACKs are serviced inline from the job's local replay window,
// replay answers and control frames wake their waiters, job control
// frames go to the registered handler. On error or EOF, unless the local
// transport itself is shutting down, the peer is reported to every active
// session's failure detector with the classified cause; then every mailbox
// of every job closes so blocked receivers fail fast — exactly the
// closed-mailbox semantics of the in-process fabric. In that order, a
// receiver the closing wakes finds the cause already recorded and returns
// a *RankFailedError rather than a bare ErrPeerFailed.
func (t *TCPTransport) readLoop(p *tcpPeer) {
	err := t.readFrames(p)
	p.close()
	defer p.markDead()
	if errors.Is(err, errReadLoopStopped) {
		return
	}
	select {
	case <-t.closed:
		// Local shutdown: the read error is our own close, not evidence
		// about the peer.
	default:
		p.markDown()
		cause := classifyPeerErr(p.rank, err)
		t.sessMu.Lock()
		sessions := make([]*tcpSession, 0, len(t.sessions))
		for _, s := range t.sessions {
			sessions = append(sessions, s)
		}
		t.sessMu.Unlock()
		for _, s := range sessions {
			if f, ok := s.onDown.Load().(func(rank int, cause error)); ok {
				f(p.rank, cause)
			}
		}
		if f, ok := t.peerDown.Load().(func(rank int, cause error)); ok && f != nil {
			f(p.rank, cause)
		}
	}
}

// deliver routes one inbound frame into a job's mailbox channel-send,
// dropping it when the job already ended locally.
func (t *TCPTransport) readFrames(p *tcpPeer) error {
	br := bufio.NewReaderSize(p.conn, 64<<10)
	// One scratch for every fixed-size read: handed to io.ReadFull it lives
	// on the heap, so it is allocated per connection rather than per frame.
	head := make([]byte, tcpDataHdrLen)
	for {
		if _, err := io.ReadFull(br, head[:4]); err != nil {
			return err
		}
		frameLen := int(binary.LittleEndian.Uint32(head))
		if frameLen < 1 || frameLen > maxFrameBytes {
			return fmt.Errorf("cluster: tcp frame length %d out of range", frameLen)
		}
		mTransportBytesIn.Add(int64(frameLen) + 4)
		kind, err := br.ReadByte()
		if err != nil {
			return err
		}
		body := frameLen - 1
		switch kind {
		case frameData:
			if body < tcpDataHdrLen {
				return fmt.Errorf("cluster: tcp data frame body %d too short", body)
			}
			hdr := head[:tcpDataHdrLen]
			if _, err := io.ReadFull(br, hdr); err != nil {
				return err
			}
			payload := bufpool.Bytes(body - tcpDataHdrLen)
			if _, err := io.ReadFull(br, payload); err != nil {
				bufpool.PutBytes(payload)
				return err
			}
			job := binary.LittleEndian.Uint32(hdr[0:4])
			m := message{
				data:   payload,
				from:   p.rank,
				seq:    int(binary.LittleEndian.Uint32(hdr[4:8])),
				epoch:  int(binary.LittleEndian.Uint32(hdr[8:12])),
				sum:    binary.LittleEndian.Uint32(hdr[12:16]),
				sentAt: math.Float64frombits(binary.LittleEndian.Uint64(hdr[16:24])),
				delay:  math.Float64frombits(binary.LittleEndian.Uint64(hdr[24:32])),
				trace:  binary.LittleEndian.Uint64(hdr[32:40]),
			}
			mb := p.deliverable(job)
			if mb == nil {
				bufpool.PutBytes(payload)
				continue
			}
			select {
			case mb.inbox <- m:
			case <-mb.bye:
				bufpool.PutBytes(m.data)
			case <-t.closed:
				bufpool.PutBytes(m.data)
				return errReadLoopStopped
			}
		case frameNack:
			if body != 12 {
				return fmt.Errorf("cluster: tcp nack frame body %d, want 12", body)
			}
			hdr := head[:12]
			if _, err := io.ReadFull(br, hdr); err != nil {
				return err
			}
			job := binary.LittleEndian.Uint32(hdr[0:4])
			seq := int(binary.LittleEndian.Uint32(hdr[4:8]))
			epoch := int(binary.LittleEndian.Uint32(hdr[8:12]))
			if err := t.serveNack(p, job, seq, epoch); err != nil {
				return err
			}
		case frameRetx:
			if body < 17 {
				return fmt.Errorf("cluster: tcp retx frame body %d too short", body)
			}
			hdr := head[:17]
			if _, err := io.ReadFull(br, hdr); err != nil {
				return err
			}
			job := binary.LittleEndian.Uint32(hdr[0:4])
			a := tcpRetx{
				status: hdr[4],
				seq:    binary.LittleEndian.Uint32(hdr[5:9]),
				epoch:  binary.LittleEndian.Uint32(hdr[9:13]),
				sum:    binary.LittleEndian.Uint32(hdr[13:17]),
			}
			a.data = bufpool.Bytes(body - 17) // the receiver's, like a data payload, once delivered
			if _, err := io.ReadFull(br, a.data); err != nil {
				bufpool.PutBytes(a.data)
				return err
			}
			mb := p.deliverable(job)
			if mb == nil {
				bufpool.PutBytes(a.data)
				continue
			}
			select {
			case mb.retx <- a:
			case <-mb.bye:
				bufpool.PutBytes(a.data)
			case <-t.closed:
				bufpool.PutBytes(a.data)
				return errReadLoopStopped
			}
		case frameAgree, frameRelease:
			if body != tcpCtlBodyLen {
				return fmt.Errorf("cluster: tcp control frame body %d, want %d", body, tcpCtlBodyLen)
			}
			hdr := head[:tcpCtlBodyLen]
			if _, err := io.ReadFull(br, hdr); err != nil {
				return err
			}
			job := binary.LittleEndian.Uint32(hdr[0:4])
			c := ctlRecord{
				kind:  kind,
				gen:   binary.LittleEndian.Uint32(hdr[4:8]),
				flags: hdr[8],
				clock: math.Float64frombits(binary.LittleEndian.Uint64(hdr[9:17])),
				val:   int64(binary.LittleEndian.Uint64(hdr[17:25])),
				dead:  binary.LittleEndian.Uint64(hdr[25:33]),
			}
			mb := p.deliverable(job)
			if mb == nil {
				continue
			}
			select {
			case mb.ctl <- c:
			case <-mb.bye:
			case <-t.closed:
				return errReadLoopStopped
			}
		case frameJob:
			if body < 5 {
				return fmt.Errorf("cluster: tcp job frame body %d too short", body)
			}
			hdr := head[:5]
			if _, err := io.ReadFull(br, hdr); err != nil {
				return err
			}
			job := binary.LittleEndian.Uint32(hdr[0:4])
			jkind := hdr[4]
			payload := bufpool.Bytes(body - 5)
			if _, err := io.ReadFull(br, payload); err != nil {
				bufpool.PutBytes(payload)
				return err
			}
			mTransportJobFrames.Inc()
			if jkind == jobByeKind {
				// The peer's side of this job ended: surface the end to the
				// job's failure detector exactly like a connection reset
				// would in a one-rank-per-process world, then close its
				// mailboxes here (we are its sole writer) so blocked
				// receivers see "peer gone". A healthy job's bye follows its
				// final agreement round, so the evidence is inert; a killed
				// rank's mid-collective bye is what lets blocked survivors
				// abort their waits and blame the right rank instead of
				// timing out on the stalled neighbors in between.
				p.peerBye(job, func() {
					if s := t.sessionFor(job); s != nil {
						if f, ok := s.onDown.Load().(func(rank int, cause error)); ok && f != nil {
							f(p.rank, fmt.Errorf("%w: rank %d (job %d session ended)", ErrConnReset, p.rank, job))
						}
					}
				})
			} else if h, ok := t.jobHandler.Load().(JobHandler); ok && h != nil {
				h(p.rank, job, jkind, payload)
			}
			bufpool.PutBytes(payload)
		default:
			return fmt.Errorf("cluster: tcp unknown frame type %d", kind)
		}
	}
}

// serveNack answers a peer's replay request from the window the
// identified job's session was bound to. A session not bound yet answers
// retxNotYetSent, as an empty window does; an unknown job — never opened
// here, or already closed — answers retxGone: its window is unrecoverable.
func (t *TCPTransport) serveNack(p *tcpPeer, job uint32, seq, epoch int) error {
	var data []byte
	var sum uint32
	status := byte(retxNotYetSent)
	if s := t.sessionFor(job); s == nil {
		mRetxEvictions.Inc()
		status = retxGone
	} else if w := s.retx.Load(); w != nil {
		var err error
		data, sum, err = w.lookup(t.rank, p.rank, seq, epoch)
		switch {
		case err == nil:
			status = retxOK
		case !errors.Is(err, errNotYetSent):
			status = retxGone
		}
	}
	var hdr [18]byte
	hdr[0] = frameRetx
	binary.LittleEndian.PutUint32(hdr[1:5], job)
	hdr[5] = status
	binary.LittleEndian.PutUint32(hdr[6:10], uint32(seq))
	binary.LittleEndian.PutUint32(hdr[10:14], uint32(epoch))
	binary.LittleEndian.PutUint32(hdr[14:18], sum)
	return p.writeFrame(hdr[:], data)
}
