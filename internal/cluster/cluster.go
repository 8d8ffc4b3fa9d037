// Package cluster is the communication substrate hZCCL runs on in this
// reproduction: a message-passing runtime that stands in for MPI over a
// 100 Gbps fabric.
//
// Each rank has its own virtual clock. Point-to-point sends move real
// bytes through a pluggable Transport — by default an in-process channel
// fabric where every rank is a goroutine, or a TCP mesh where every rank
// is its own OS process (see transport.go) — while *time* is charged
// through a LogP-style (α, β) model: receiving a message completes at
//
//	max(receiver clock, sender clock at send + α + bytes/β)
//
// which is the same analytic model the paper's Section III-C cost
// equations use. Compute is charged as an explicit duration (Elapse): the
// collectives price each codec call at modelled rates, so a run's virtual
// time is the same on any machine and at any load. Wall spans of the real
// work (Wall) go to the trace's wall timeline only.
//
// The per-rank clock advance is tracked per category (CPR, DPR, CPT, HPR,
// MPI, OTHER) so the Figure 2 / Table VII runtime breakdowns fall out of
// any collective run for free.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"hzccl/internal/telemetry"
)

// Category labels where virtual time went, matching the paper's breakdown
// buckets.
type Category string

// Breakdown categories.
const (
	CatCPR   Category = "CPR"   // compression
	CatDPR   Category = "DPR"   // decompression
	CatCPT   Category = "CPT"   // reduction arithmetic on raw values
	CatHPR   Category = "HPR"   // homomorphic reduction on compressed data
	CatMPI   Category = "MPI"   // communication (network model)
	CatOther Category = "OTHER" // everything else (packing, bookkeeping)
)

// Categories lists all breakdown categories in display order.
var Categories = []Category{CatCPR, CatDPR, CatCPT, CatHPR, CatMPI, CatOther}

// Config describes the simulated machine.
type Config struct {
	// Ranks is the number of processes (paper: one per node).
	Ranks int
	// Latency is the per-message latency α. Defaults to 1.5µs
	// (Omni-Path-class).
	Latency time.Duration
	// BandwidthBytes is the link bandwidth β in bytes/second. Defaults to
	// 12.5e9 (100 Gbps).
	BandwidthBytes float64
	// Fault, when non-nil, is consulted for every point-to-point message
	// and may drop, duplicate, corrupt or delay it (see fault.go). Leave
	// nil for a healthy fabric.
	Fault Fault
	// RecvTimeout bounds the wall-clock time Recv waits for a message.
	// 0 (the default) waits forever. Set it in fault-injection runs so a
	// dropped message surfaces as ErrRecvTimeout instead of a deadlock.
	RecvTimeout time.Duration
	// Corrupt shapes FaultCorrupt injections. Nil keeps the legacy
	// single-bit pattern (bit 5 of the middle byte); see CorruptPattern.
	Corrupt *CorruptPattern
	// Reliable enables the NACK-driven retransmission layer (reliable.go):
	// senders keep a bounded per-link replay window, the receiver recovers
	// corrupted/lost messages by requesting a replay (with exponential
	// backoff and a retry budget), and duplicate sequence numbers are
	// silently deduplicated instead of erroring. Drop recovery requires
	// RecvTimeout; enabling Reliable defaults it to 500ms when unset.
	Reliable bool
	// RetryBudget is the maximum number of recovery attempts per message
	// before Recv gives up with ErrRetryBudgetExhausted. 0 selects 8.
	RetryBudget int
	// RetryBackoff is the base of the exponential backoff charged (as MPI
	// virtual time, on the stalled receiver) after each failed recovery
	// attempt: attempt k waits RetryBackoff·2^(k−1). 0 selects 20µs.
	RetryBackoff time.Duration
	// RetxWindow is how many recent messages each sender retains per link
	// for replay. A NACK for an evicted message fails with
	// ErrRetransmitGone. 0 selects 128.
	RetxWindow int
	// Transport selects the message fabric. Nil selects the in-process
	// channel transport (every rank a goroutine of this process, the
	// behavior all virtual-time experiments are calibrated against). A
	// TCPTransport runs this process as one rank of a multi-process
	// cluster; Run then executes the body only for that local rank.
	Transport Transport
	// Topology groups ranks into "nodes" for the hierarchical collectives
	// (see Topology). Nil means one flat node holding every rank. Being
	// pure configuration, it applies identically on every Transport.
	Topology *Topology
	// Trace, when non-nil, records every virtual-time advance, wall-clock
	// compute span and cross-rank message flow into the given trace —
	// equivalent to NewTraced but usable when the caller owns Trace
	// creation (each process of a TCP mesh writes its own file, merged
	// later with MergeChromeTraces).
	Trace *Trace

	// onPeerDown, set by New before the transport binds, routes transport
	// evidence of a remote peer's death (TCP connection reset/EOF) into
	// the cluster's failure detector.
	onPeerDown func(rank int, cause error)
}

func (c Config) withDefaults() Config {
	if c.Latency == 0 {
		c.Latency = 1500 * time.Nanosecond
	}
	if c.BandwidthBytes == 0 {
		c.BandwidthBytes = 12.5e9
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 8
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 20 * time.Microsecond
	}
	if c.RetxWindow == 0 {
		c.RetxWindow = 128
	}
	if c.Reliable && c.RecvTimeout == 0 {
		c.RecvTimeout = 500 * time.Millisecond
	}
	return c
}

// agreeTimeout bounds each wait of an agreement round (agree.go): a peer
// may legitimately spend up to RetryBudget receive timeouts in recovery
// before arriving, so the deadline scales with the budget. 0 (no
// RecvTimeout) waits until the awaited rank's link closes.
func (c Config) agreeTimeout() time.Duration {
	if c.RecvTimeout <= 0 {
		return 0
	}
	return c.RecvTimeout * time.Duration(c.RetryBudget+2)
}

// Result aggregates a finished run.
type Result struct {
	// Time is the collective completion time: the maximum final virtual
	// clock over all participating local ranks, in seconds.
	Time float64
	// RankTimes holds each local rank's final virtual clock. With the
	// default in-process transport it has one entry per rank; with a
	// multi-process transport it has a single entry (the local rank's).
	RankTimes []float64
	// Breakdown sums each category's virtual time across the local ranks.
	Breakdown map[Category]float64
	// WallSeconds is the real elapsed time of the run, reported next to
	// the virtual model. On the in-process fabric it covers every rank's
	// goroutine, whose compute runs concurrently; on a real-socket
	// transport it is the local process's end-to-end wall time.
	WallSeconds float64
	// Evicted lists the physical ranks removed from the world by a
	// membership-shrink consensus during the run, ascending. Empty on a
	// healthy run.
	Evicted []int
}

// AvgTime returns the mean final clock across ranks (the paper's kernels
// report avg/max/min).
func (r *Result) AvgTime() float64 {
	if len(r.RankTimes) == 0 {
		return 0
	}
	s := 0.0
	for _, t := range r.RankTimes {
		s += t
	}
	return s / float64(len(r.RankTimes))
}

// MinTime returns the minimum final clock across ranks.
func (r *Result) MinTime() float64 {
	if len(r.RankTimes) == 0 {
		return 0
	}
	m := r.RankTimes[0]
	for _, t := range r.RankTimes {
		if t < m {
			m = t
		}
	}
	return m
}

// BreakdownFractions returns each category's share of the summed virtual
// time (Figure 2 / Table VII percentages).
func (r *Result) BreakdownFractions() map[Category]float64 {
	total := 0.0
	for _, v := range r.Breakdown {
		total += v
	}
	out := make(map[Category]float64, len(r.Breakdown))
	if total == 0 {
		return out
	}
	for k, v := range r.Breakdown {
		out[k] = v / total
	}
	return out
}

// BreakdownShare is one category's absolute and fractional share of a
// run's summed virtual time.
type BreakdownShare struct {
	Category Category
	Seconds  float64
	Fraction float64
}

// BreakdownShares returns the per-category shares in the fixed display
// order of Categories. Unlike ranging over the Breakdown map, iteration
// order is deterministic, so printed breakdowns are reproducible run to
// run (golden text outputs in results/ depend on this).
func (r *Result) BreakdownShares() []BreakdownShare {
	total := 0.0
	for _, v := range r.Breakdown {
		total += v
	}
	out := make([]BreakdownShare, 0, len(Categories))
	for _, cat := range Categories {
		s := BreakdownShare{Category: cat, Seconds: r.Breakdown[cat]}
		if total > 0 {
			s.Fraction = s.Seconds / total
		}
		out = append(out, s)
	}
	return out
}

type message struct {
	data   []byte
	sentAt float64
	// from is the sender rank, seq its 0-based ordinal on the (from, to)
	// link, sum the payload crc32c and delay extra modeled in-flight
	// seconds (fault injection). epoch tags the message with the sender's
	// AdvanceEpoch generation so aborted-attempt traffic can be discarded.
	from  int
	seq   int
	sum   uint32
	delay float64
	epoch int
	// trace is the sender's collective-op trace ID (BeginOp), carried with
	// the message — across the wire on the TCP fabric — so the receiver
	// can pair its delivery with the remote send in a merged trace.
	trace uint64
}

// Cluster owns the transport and timing state for one run.
type Cluster struct {
	cfg Config
	tr  Transport

	// retx is the senders' replay windows of reliable delivery. The
	// transport answers NACKs from it (bound at bind), so it outlives a
	// sender's exit exactly as long as the cluster hosting that sender.
	retx retxStore

	// det is the failure detector feeding cooperative abort and
	// shrink-and-continue (membership.go).
	det *detector
	// evicted records the physical ranks removed by membership shrinks,
	// deduplicated across the survivor ranks reporting them.
	evictMu sync.Mutex
	evicted map[int]bool

	// trace, when non-nil, records every virtual-time advance (set by
	// NewTraced).
	trace *Trace
	// epoch anchors the wall-clock timeline of traced runs: wall spans are
	// recorded relative to cluster creation.
	epoch time.Time
}

// New creates a cluster with the given configuration.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("cluster: Ranks must be >= 1, got %d", cfg.Ranks)
	}
	if err := cfg.Topology.Validate(cfg.Ranks); err != nil {
		return nil, err
	}
	c := &Cluster{epoch: time.Now(), det: newDetector(), evicted: make(map[int]bool), retx: retxStore{window: cfg.RetxWindow}}
	// Wire the transport's death evidence into the failure detector
	// before the transport binds: a reader goroutine may observe a
	// connection reset at any point after that.
	cfg.onPeerDown = func(rank int, cause error) { c.det.confirm(rank, cause) }
	tr := cfg.Transport
	if tr == nil {
		tr = newChanTransport()
	}
	if err := tr.bind(cfg, &c.retx); err != nil {
		return nil, err
	}
	c.cfg, c.tr = cfg, tr
	if hint, ok := tr.epochHint(); ok {
		// A multi-process transport supplies a mesh-wide epoch so wall
		// timestamps from different processes share one time base.
		c.epoch = hint
	}
	if cfg.Trace != nil {
		c.attachTrace(cfg.Trace)
	}
	return c, nil
}

// attachTrace wires a trace into the cluster and stamps it with the
// producing process's identity (rank −1 means this process hosts every
// rank) and wall-clock epoch.
func (c *Cluster) attachTrace(tr *Trace) {
	c.trace = tr
	meta := TraceMeta{Rank: -1, World: c.cfg.Ranks, EpochNanos: c.epoch.UnixNano()}
	if local, ok := c.tr.LocalRank(); ok {
		meta.Rank = local
	}
	tr.setMeta(meta)
}

// Run executes body once per rank, each on its own goroutine, and gathers
// timing results. If any rank returns an error, Run returns the first one
// (by rank order) after all ranks finish.
func Run(cfg Config, body func(*Rank) error) (*Result, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return c.Run(body)
}

func (c *Cluster) newRank(id int) *Rank {
	r := &Rank{
		ID: id, N: c.cfg.Ranks, phys: id, c: c, breakdown: make(map[Category]float64),
		sendSeq: make([]int, c.cfg.Ranks), recvSeq: make([]int, c.cfg.Ranks),
		pending: make([]map[int]message, c.cfg.Ranks), ctlGone: make([]bool, c.cfg.Ranks),
	}
	if n := c.cfg.Ranks; n <= 64 {
		r.memberMask = ^uint64(0) >> (64 - uint(n))
	}
	return r
}

// Run executes body for every local rank of the transport: once per rank
// on the default in-process fabric, or exactly once — for this process's
// rank — on a multi-process transport. A Cluster must not be reused after
// Run returns.
func (c *Cluster) Run(body func(*Rank) error) (*Result, error) {
	if local, ok := c.tr.LocalRank(); ok {
		return c.runLocal(local, body)
	}
	start := time.Now()
	n := c.cfg.Ranks
	ranks := make([]*Rank, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		r := c.newRank(i)
		ranks[i] = r
		go func(r *Rank, i int) {
			defer wg.Done()
			// When a rank exits, close every channel it feeds so peers
			// blocked on Recv fail fast (ErrPeerFailed) instead of
			// deadlocking the whole run.
			defer c.tr.closeRank(i)
			defer func() {
				if p := recover(); p != nil {
					errs[i] = fmt.Errorf("cluster: rank %d panicked: %v", i, p)
					c.det.confirm(i, errs[i])
				}
			}()
			errs[i] = body(r)
			if errs[i] != nil {
				// Hard evidence for the failure detector: the rank's body
				// died. Confirm before closeRank so cooperative aborts on
				// the surviving ranks see the cause.
				c.det.confirm(i, errs[i])
			}
		}(r, i)
	}
	wg.Wait()
	res := &Result{
		RankTimes:   make([]float64, n),
		Breakdown:   make(map[Category]float64),
		WallSeconds: time.Since(start).Seconds(),
		Evicted:     c.evictedList(),
	}
	for i, r := range ranks {
		res.RankTimes[i] = r.now
		if r.now > res.Time {
			res.Time = r.now
		}
		for k, v := range r.breakdown {
			res.Breakdown[k] += v
		}
	}
	// Prefer a root-cause error over the ErrPeerFailed cascade it triggers
	// on other ranks: when one rank aborts (e.g. on a checksum mismatch),
	// its peers observe closed channels, and reporting those would mask
	// the rank that actually detected the problem. A killed or evicted
	// rank's own exit error is benign as long as the survivors succeeded —
	// that is shrink-and-continue working as intended — but becomes the
	// reported error when every rank died.
	var peerErr, benignErr error
	okRanks := 0
	for _, e := range errs {
		if e == nil {
			okRanks++
			continue
		}
		if errors.Is(e, ErrRankKilled) || errors.Is(e, ErrEvicted) {
			if benignErr == nil {
				benignErr = e
			}
			continue
		}
		if errors.Is(e, ErrPeerFailed) {
			if peerErr == nil {
				peerErr = e
			}
			continue
		}
		return res, e
	}
	if peerErr != nil {
		return res, peerErr
	}
	if okRanks == 0 && benignErr != nil {
		return res, benignErr
	}
	return res, nil
}

// runLocal executes body for the single rank this process hosts; its
// peers run the same body in their own processes against the same
// transport mesh.
func (c *Cluster) runLocal(id int, body func(*Rank) error) (*Result, error) {
	start := time.Now()
	r := c.newRank(id)
	err := func() (err error) {
		defer c.tr.closeRank(id)
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("cluster: rank %d panicked: %v", id, p)
			}
		}()
		return body(r)
	}()
	res := &Result{
		Time:        r.now,
		RankTimes:   []float64{r.now},
		Breakdown:   r.Breakdown(),
		WallSeconds: time.Since(start).Seconds(),
		Evicted:     c.evictedList(),
	}
	return res, err
}

// Rank is one simulated process. All methods must be called only from the
// rank's own goroutine.
//
// ID and N are the rank's *virtual* view of the world: initially
// identical to the physical ids the cluster was created with, they
// renumber densely when ShrinkWorld evicts dead members, so every
// schedule written against ID/N runs on a shrunken world unchanged. All
// internal per-link state (sequence numbers, replay windows, telemetry)
// stays indexed by the immutable physical id.
type Rank struct {
	ID int
	N  int

	c         *Cluster
	now       float64
	breakdown map[Category]float64
	// phys is the immutable physical rank id (see PhysID).
	phys int
	// members maps virtual → physical ids after a shrink; nil means the
	// identity mapping. memberMask is the physical bitmap of current
	// members (0 on worlds beyond the 64-rank elastic limit); topo, when
	// non-nil, overrides the configured Topology with the shrunken one.
	members    []int
	memberMask uint64
	topo       *Topology
	// failFast arms cooperative abort (SetFailFast); killed is latched
	// once a FaultKill terminated this rank; suspected tracks which peers
	// this rank reported to the failure detector; sendCount numbers this
	// rank's original sends across all links (FaultContext.RankSeq).
	failFast  bool
	killed    bool
	suspected uint64
	sendCount int
	// sendSeq[to] / recvSeq[from] count messages per link, backing the
	// sequence-number integrity check. Only touched from the rank's own
	// goroutine.
	sendSeq []int
	recvSeq []int
	// epoch is this rank's AdvanceEpoch generation; messages from older
	// epochs are silently discarded by Recv.
	epoch int
	// pending[from] retains messages that arrived ahead of the expected
	// sequence number (a loss was detected before them) so they can be
	// redelivered in order instead of being sacrificed with the lost one.
	pending []map[int]message
	// opCount numbers collective operations started on this rank (BeginOp);
	// opTrace is the current operation's trace ID, stamped on every
	// outgoing message. Collectives execute in the same program order on
	// every rank, so the per-rank ordinal is a cluster-wide consistent ID
	// with no coordination — the same invariant agreeGen relies on.
	opCount uint64
	opTrace uint64
	// agreeGen numbers this rank's agreement rounds; ctlGone[p] is set once
	// physical rank p's control link was seen closed (agree.go).
	agreeGen uint32
	ctlGone  []bool
}

// BeginOp marks the start of a collective operation on this rank and
// returns its trace ID: the 1-based ordinal of the op in this rank's
// program order, which — because every rank runs the collectives in the
// same order — identifies the same operation on every rank without any
// coordination. Until the next BeginOp, every message this rank sends
// carries the ID, so merged multi-process traces and flight-recorder
// dumps attribute traffic to the collective that produced it.
func (r *Rank) BeginOp(name string) uint64 {
	r.opCount++
	r.opTrace = r.opCount
	flight.Record(r.phys, telemetry.FlightOp, int64(r.opTrace), 0, 0, 0)
	if tr := r.c.trace; tr != nil {
		tr.recordInstant(Instant{Name: "op " + name, Rank: r.phys, Ts: r.wallNow()})
	}
	return r.opTrace
}

// wallNow returns wall seconds since the cluster's trace epoch.
func (r *Rank) wallNow() float64 { return time.Since(r.c.epoch).Seconds() }

// flowID renders the globally unique identity of one message for flow
// pairing: trace ID, link, epoch and sequence number. Sender and receiver
// derive the same string independently.
func flowID(trace uint64, from, to, epoch, seq int) string {
	return fmt.Sprintf("t%d:%d>%d:%d.%d", trace, from, to, epoch, seq)
}

// noteRecv records the delivery side of a message: a flight-recorder
// event always, plus — when traced — the finish half of the flow edge,
// anchored to a wall slice spanning the receive wait.
func (r *Rank) noteRecv(m message, waitStart time.Time) {
	flight.Record(r.phys, telemetry.FlightRecv, int64(m.from), int64(r.phys), int64(m.seq), int64(len(m.data)))
	if tr := r.c.trace; tr != nil {
		tr.recordFlow(FlowPoint{
			Phase: 'f',
			ID:    flowID(m.trace, m.from, r.phys, m.epoch, m.seq),
			Name:  fmt.Sprintf("recv %d<%d", r.phys, m.from),
			Rank:  r.phys,
			Start: waitStart.Sub(r.c.epoch).Seconds(),
			Dur:   time.Since(waitStart).Seconds(),
		})
	}
}

// NoteDegrade records a degradation-ladder move (backend indices `from` →
// `to`) in the flight recorder and, when traced, as an instant on the
// wall timeline. Purely observational; the ladder logic lives above the
// cluster.
func (r *Rank) NoteDegrade(from, to int) {
	flight.Record(r.phys, telemetry.FlightDegrade, int64(from), int64(to), 0, 0)
	if tr := r.c.trace; tr != nil {
		tr.recordInstant(Instant{Name: fmt.Sprintf("degrade %d→%d", from, to), Rank: r.phys, Ts: r.wallNow()})
	}
}

// Config returns the cluster configuration (with defaults applied) the
// rank is running under. After a ShrinkWorld the returned Topology is
// the shrunken one, matching the rank's virtual ID/N view, so schedules
// that consult it keep working on the smaller world.
func (r *Rank) Config() Config {
	cfg := r.c.cfg
	if r.topo != nil {
		cfg.Topology = r.topo
	}
	return cfg
}

// ErrBadPeer is returned when a peer rank index is out of range.
var ErrBadPeer = errors.New("cluster: peer rank out of range")

// ErrPeerFailed is returned by Recv when the sending rank exited (with an
// error or otherwise) before providing the awaited message, so the value
// will never arrive.
var ErrPeerFailed = errors.New("cluster: peer rank exited before sending")

// Now returns the rank's current virtual time in seconds.
func (r *Rank) Now() float64 { return r.now }

// Breakdown returns this rank's per-category virtual time.
func (r *Rank) Breakdown() map[Category]float64 {
	out := make(map[Category]float64, len(r.breakdown))
	for k, v := range r.breakdown {
		out[k] = v
	}
	return out
}

// Elapse advances the virtual clock by the given seconds, attributed to
// the category.
func (r *Rank) Elapse(cat Category, seconds float64) {
	if seconds < 0 || math.IsNaN(seconds) {
		return
	}
	if tr := r.c.trace; tr != nil && seconds > 0 {
		tr.record(TraceEvent{Rank: r.phys, Category: cat, Start: r.now, Dur: seconds})
	}
	r.now += seconds
	r.breakdown[cat] += seconds
}

// Wall runs f (real work that does not communicate) and records its
// wall-clock span into the trace's wall timeline, beside the virtual
// schedule it is charged into. It charges no virtual time.
func (r *Rank) Wall(cat Category, f func()) {
	tr := r.c.trace
	if tr == nil {
		f()
		return
	}
	t0 := time.Now()
	f()
	if dt := time.Since(t0).Seconds(); dt > 0 {
		tr.recordWall(TraceEvent{Rank: r.phys, Category: cat, Start: t0.Sub(r.c.epoch).Seconds(), Dur: dt})
	}
}

// Send transmits data to peer `to`. The caller keeps its buffer: Send is
// done with data's bytes when it returns and never modifies or recycles
// them, so the caller may overwrite, reuse or recycle them — through bufpool
// too — at once. Bytes are copied where they change owner and nowhere else:
// the in-process fabric copies the payload for the receiver, who ends up
// owning that copy exclusively and may hand it back with bufpool.PutBytes
// once consumed; the TCP fabric checksums and writes the caller's bytes in
// place; the reliable layer's retransmit window records its own pristine
// copy (below); fault injection copies before it mutates. Sending is
// asynchronous (eager): the sender's clock does not advance; transfer time
// is charged on the receiver, which models the overlapped sends of a ring
// pipeline.
//
// Each message carries a crc32c checksum and a per-link sequence number,
// verified by Recv; a configured Fault hook may drop, duplicate, corrupt
// or delay the message before it is enqueued.
func (r *Rank) Send(to int, data []byte) error {
	if r.killed {
		return fmt.Errorf("%w: rank %d", ErrRankKilled, r.phys)
	}
	if to < 0 || to >= r.N {
		return fmt.Errorf("%w: send to %d of %d", ErrBadPeer, to, r.N)
	}
	if to == r.ID {
		return fmt.Errorf("%w: self-send", ErrBadPeer)
	}
	pt := r.peerPhys(to)
	m := message{data: data, sentAt: r.now, from: r.phys, seq: r.sendSeq[pt], epoch: r.epoch, trace: r.opTrace}
	r.sendSeq[pt]++
	rankSeq := r.sendCount
	r.sendCount++
	tr := r.c.trace
	var wallStart time.Time
	if tr != nil {
		wallStart = time.Now()
	}
	m.sum = checksum(data)
	flight.Record(r.phys, telemetry.FlightSend, int64(r.phys), int64(pt), int64(m.seq), int64(len(data)))
	if tr != nil {
		// The send half of the flow edge, anchored to the checksum work
		// that physically happened on this rank.
		tr.recordFlow(FlowPoint{
			Phase: 's',
			ID:    flowID(m.trace, r.phys, pt, m.epoch, m.seq),
			Name:  fmt.Sprintf("send %d>%d", r.phys, pt),
			Rank:  r.phys,
			Start: wallStart.Sub(r.c.epoch).Seconds(),
			Dur:   time.Since(wallStart).Seconds(),
		})
	}
	if r.c.cfg.Reliable {
		// Record the pristine payload in the per-link replay window before
		// the fault hook can damage or drop it.
		r.c.retx.record(r.phys, pt, m.seq, m.epoch, data, m.sum)
	}
	copies, dropped, killed := r.c.applyFault(&m, pt, rankSeq)
	if killed {
		// This rank dies at this send: the message is never transmitted,
		// the replay windows of a dead process are gone (so peers cannot
		// salvage anything it "sent" after death), and every later
		// Send/Recv fails immediately.
		r.killed = true
		r.c.retx.clear(r.phys)
		return fmt.Errorf("%w: rank %d at send #%d", ErrRankKilled, r.phys, rankSeq)
	}
	if dropped {
		return nil
	}
	return r.c.tr.send(pt, m, copies)
}

// Recv blocks until a message from peer `from` arrives and returns its
// payload. The rank's clock advances to the modeled arrival time
// max(now, sentAt + α + len/β), with the advance charged to MPI.
//
// Recv verifies every message's epoch, sequence number and checksum.
// In the default (strict) mode it surfaces every violation: a checksum
// mismatch returns ErrMessageCorrupt, a sequence gap ErrMessageLost (the
// later message is retained and redelivered by the next Recv) and a
// replayed sequence number ErrMessageDuplicate. With Config.RecvTimeout
// set, a message that never arrives returns ErrRecvTimeout instead of
// blocking forever.
//
// With Config.Reliable set, Recv instead *recovers*: corrupted or lost
// messages are NACKed and replayed from the sender's retransmit window
// (bounded by RetryBudget, with exponential backoff), and duplicates are
// silently deduplicated. See reliable.go.
func (r *Rank) Recv(from int) ([]byte, error) {
	if r.killed {
		return nil, fmt.Errorf("%w: rank %d", ErrRankKilled, r.phys)
	}
	if from < 0 || from >= r.N {
		return nil, fmt.Errorf("%w: recv from %d of %d", ErrBadPeer, from, r.N)
	}
	if from == r.ID {
		return nil, fmt.Errorf("%w: self-recv", ErrBadPeer)
	}
	from = r.peerPhys(from)
	timeout := r.c.cfg.RecvTimeout
	waitStart := time.Now()
	waits := 0
	for {
		want := r.recvSeq[from]
		// fault is what met message `want`: a failed wait or an integrity
		// violation. nil means m is that message, to be checksummed.
		var fault error
		m, held := r.takePending(from, want)
		if !held {
			// Cooperative abort: fetch the watch channel BEFORE checking the
			// confirmed set, so a confirmation landing in between still fires
			// the channel during the wait.
			abort := r.abortWatch()
			if r.failFast {
				if d := r.confirmedPeer(from); d >= 0 {
					return nil, r.rankFailedErr(d)
				}
			}
			var ok bool
			var err error
			m, ok, err = r.c.tr.recv(from, r.phys, timeout, abort)
			if errors.Is(err, errAborted) {
				if d := r.confirmedPeer(from); d >= 0 {
					return nil, r.rankFailedErr(d)
				}
				// The confirmed rank is `from` itself: treat it exactly like
				// its exit.
				ok, err = false, nil
			}
			switch {
			case err != nil:
				r.noteSuspect(from)
				fault = fmt.Errorf("%w: from rank %d after %v", err, from, timeout)
			case !ok:
				r.c.det.confirm(from, nil)
				fault = ErrPeerFailed
			default:
				r.unsuspect(from)
				// The bytes moved (and were charged) regardless; integrity
				// failures surface after the clock advance so timing stays
				// physical.
				r.chargeArrival(m)
				if m.epoch > r.epoch {
					return nil, fmt.Errorf("cluster: rank %d got epoch %d message from rank %d while in epoch %d (AdvanceEpoch must be globally synchronized)",
						r.phys, m.epoch, from, r.epoch)
				}
				if m.epoch < r.epoch || (m.seq < want && r.c.cfg.Reliable) {
					// Stale traffic from an abandoned attempt, or a duplicate
					// reliable delivery drops.
					mDedups.Inc()
					flight.Record(r.phys, telemetry.FlightDedup, int64(m.from), int64(r.phys), int64(m.seq), int64(m.epoch))
					continue
				}
				switch {
				case m.seq < want:
					return nil, fmt.Errorf("%w: from rank %d, seq %d already consumed", ErrMessageDuplicate, from, m.seq)
				case m.seq > want:
					// `want` was lost. Retain the later message: the next
					// delivery of this link hands it out in order.
					r.stashPending(from, m)
					fault = fmt.Errorf("%w: from rank %d, expected seq %d got %d (later message retained)", ErrMessageLost, from, want, m.seq)
				}
			}
		}
		if fault == nil {
			if r.intact(m) {
				r.unsuspect(from)
				r.recvSeq[from] = want + 1
				r.noteRecv(m, waitStart)
				return m.data, nil
			}
			fault = fmt.Errorf("%w: from rank %d, seq %d, %d bytes", ErrMessageCorrupt, from, m.seq, len(m.data))
		}
		exited := errors.Is(fault, ErrPeerFailed)
		if !r.c.cfg.Reliable {
			if exited {
				return nil, r.peerFailedErr(from)
			}
			if !errors.Is(fault, ErrRecvTimeout) {
				// A lost or corrupt message is spent: the next Recv expects
				// the one after it.
				r.recvSeq[from] = want + 1
			}
			return nil, fault
		}
		data, err := r.recover(from, want, fault)
		switch {
		case err == nil:
			r.unsuspect(from)
			r.recvSeq[from] = want + 1
			return data, nil
		case exited:
			return nil, r.peerFailedErr(from)
		case errors.Is(err, errNotYetSent):
			// The sender is merely slow: wait again, within the budget.
			if waits++; waits <= r.c.cfg.RetryBudget {
				continue
			}
			return nil, fmt.Errorf("%w: from rank %d after %d waits of %v", ErrRecvTimeout, from, waits, timeout)
		}
		return nil, err
	}
}

// LinkDepth is how many messages the in-process fabric buffers per link:
// deep enough that eager sends never block a sender in the lockstep
// patterns of pipelined protocols (e.g. segmented rings).
const LinkDepth = 64

// Arrival is the fabric's one arrival rule: a message of n bytes sent at
// sentAt over a link of latency alpha seconds and bandwidth beta bytes/s
// arrives at sentAt + alpha + n/beta, and a receiver's clock moves to the
// later of that and its own.
func Arrival(sentAt, alpha, beta float64, n int) float64 {
	return sentAt + alpha + float64(n)/beta
}

// chargeArrival advances the virtual clock to the modeled arrival time of
// m, charging the advance to MPI.
func (r *Rank) chargeArrival(m message) {
	arrive := Arrival(m.sentAt+m.delay, r.c.cfg.Latency.Seconds(), r.c.cfg.BandwidthBytes, len(m.data))
	if arrive > r.now {
		if tr := r.c.trace; tr != nil {
			tr.record(TraceEvent{Rank: r.phys, Category: CatMPI, Start: r.now, Dur: arrive - r.now})
		}
		r.breakdown[CatMPI] += arrive - r.now
		r.now = arrive
	}
}

// intact reports whether m's payload still matches its checksum.
func (r *Rank) intact(m message) bool {
	return checksum(m.data) == m.sum
}

// stashPending retains an ahead-of-sequence message for in-order
// redelivery. Only current-epoch messages are stashed.
func (r *Rank) stashPending(from int, m message) {
	if r.pending[from] == nil {
		r.pending[from] = make(map[int]message)
	}
	r.pending[from][m.seq] = m
}

// takePending removes and returns the retained message with the given
// sequence number, if any.
func (r *Rank) takePending(from, seq int) (message, bool) {
	m, ok := r.pending[from][seq]
	if ok {
		delete(r.pending[from], seq)
	}
	return m, ok
}

// AdvanceEpoch moves this rank into the next message epoch: per-link
// sequence numbers reset, in-flight messages from older epochs are
// silently discarded by Recv, and this rank's retransmit windows are
// cleared. Collectives use it to retry on a clean slate after a failed
// attempt. All ranks must advance together at a synchronization point
// (Barrier or AgreeMax) — an epoch from the future observed by Recv is a
// protocol error.
func (r *Rank) AdvanceEpoch() {
	r.epoch++
	flight.Record(r.ID, telemetry.FlightEpoch, int64(r.epoch), 0, 0, 0)
	for i := range r.sendSeq {
		r.sendSeq[i] = 0
	}
	for i := range r.recvSeq {
		r.recvSeq[i] = 0
	}
	for i := range r.pending {
		r.pending[i] = nil
	}
	r.c.retx.clear(r.phys)
}

// SendRecv posts a send to `to` and then receives from `from`, the
// exchange pattern of one ring round.
func (r *Rank) SendRecv(to int, data []byte, from int) ([]byte, error) {
	if err := r.Send(to, data); err != nil {
		return nil, err
	}
	return r.Recv(from)
}

// Barrier synchronizes all ranks and their clocks: everyone leaves at
// max(clock) + α·ceil(log2 N), the cost of a tree barrier. If a peer
// exits (its body returns) before reaching the barrier, the remaining
// ranks abort with an ErrPeerFailed-wrapped error instead of waiting
// forever; with Config.RecvTimeout set, the wait is additionally bounded
// by a deadline scaled to the retry budget.
func (r *Rank) Barrier() error {
	_, err := r.AgreeMax(0)
	return err
}

// AgreeMax is a Barrier that additionally agrees on a value: every rank
// contributes v, all ranks leave together (clocks synchronized exactly
// like Barrier, with the same α·ceil(log2 N) tree cost), and each
// receives the maximum contributed value. Because it runs on control
// records (agree.go) rather than point-to-point messages, it is immune
// to injected fabric faults — the collectives use it as the control
// plane for agreeing to retry or degrade after a failed attempt.
func (r *Rank) AgreeMax(v int) (int, error) {
	agreed, _, err := r.agree(v, 0, false)
	return agreed, err
}
