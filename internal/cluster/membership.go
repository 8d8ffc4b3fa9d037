package cluster

// Elastic membership: failure detection, cooperative abort, and
// shrink-and-continue worlds.
//
// Every collective used to assume a fixed, immortal world: when a rank
// died, the best the degradation machinery could do was time out and
// descend the *backend* ladder, never touch the *membership*. This file
// adds the three pieces that let a running cluster survive rank death:
//
//   - A failure detector with suspect/confirm states. Liveness is
//     piggybacked on regular traffic rather than on heartbeats (which
//     would disturb the virtual-time model): a receive timeout or an
//     exhausted retry budget *suspects* the peer, a successful delivery
//     clears the suspicion, and hard evidence — the peer's body
//     returning an error in-process, or its TCP connection resetting —
//     *confirms* the death. Transitions feed the cluster.{suspects,
//     confirms} counters and suspect/confirm flight-recorder events.
//   - Cooperative abort. When armed (Rank.SetFailFast, used by the
//     Shrink degradation rung), every blocked receive watches the
//     detector's notification channel: the moment any member is
//     confirmed dead, all survivors abandon the attempt with a typed
//     *RankFailedError instead of each burning a full RecvTimeout.
//   - Shrink-and-continue. Survivors agree on the dead set with
//     Rank.AgreeDead (a death-tolerant consensus round that completes
//     without the dead ranks) and call Rank.ShrinkWorld: ranks renumber
//     densely, the Topology drops the dead slots, the epoch advances,
//     and the collective re-runs on the smaller world. Internally all
//     per-link state stays indexed by the immutable *physical* rank id;
//     only the public ID/N view and the peer arguments of Send/Recv are
//     virtual, which is why every schedule in internal/core runs on a
//     shrunken world unchanged.
//
// Dead-set bookkeeping uses uint64 bitmaps, so elastic membership
// supports worlds of at most 64 ranks (ErrWorldTooLarge beyond); the
// fixed-world behavior is unlimited as before.

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"hzccl/internal/telemetry"
)

// Membership errors.
var (
	// ErrRankFailed is the class of "a member of the world died" errors:
	// every *RankFailedError matches it (and, for compatibility with the
	// fixed-world API, ErrPeerFailed too).
	ErrRankFailed = errors.New("cluster: rank failed")
	// ErrRankKilled is returned by Send/Recv on a rank that a FaultKill
	// injection has terminated: from the fabric's point of view the rank
	// is dead and must stop talking.
	ErrRankKilled = errors.New("cluster: rank killed by fault injection")
	// ErrEvicted is returned by ShrinkWorld on a rank that the membership
	// consensus declared dead (it was suspected by the survivors — e.g. a
	// network partition isolated it). The evicted rank must exit; the
	// survivors continue without it.
	ErrEvicted = errors.New("cluster: rank evicted by membership consensus")
	// ErrConnReset marks a TCP peer connection that reset or closed
	// mid-run — the transport-level evidence feeding the failure
	// detector's confirm state.
	ErrConnReset = errors.New("cluster: peer connection reset")
	// ErrWorldTooLarge is returned by the elastic-membership operations
	// (AgreeDead, ShrinkWorld) on worlds beyond the 64-rank bitmap limit.
	ErrWorldTooLarge = errors.New("cluster: elastic membership supports at most 64 ranks")
)

// RankFailedError reports that a specific rank died while the cluster
// needed it. It matches both ErrRankFailed and — because a dead rank is
// a peer that will never send — ErrPeerFailed under errors.Is, so
// fixed-world error handling keeps working while elastic callers can
// extract the rank and the underlying cause.
type RankFailedError struct {
	// Rank is the physical rank that failed.
	Rank int
	// Cause is the evidence, when known: ErrConnReset, ErrRankKilled, the
	// failed rank's body error, or nil when only the exit was observed.
	Cause error
}

func (e *RankFailedError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("cluster: rank %d failed: %v", e.Rank, e.Cause)
	}
	return fmt.Sprintf("cluster: rank %d failed", e.Rank)
}

// Is reports the error classes a rank failure belongs to. The Cause is
// deliberately NOT unwrapped: "rank X died" must not inherit the error
// classes of *what killed X* (a survivor's error matching the victim's
// ErrRankKilled would make the survivor look killed too). Inspect Cause
// directly (errors.As to *RankFailedError, then errors.Is on .Cause).
func (e *RankFailedError) Is(target error) bool {
	return target == ErrRankFailed || target == ErrPeerFailed
}

// errAborted is the internal sentinel a transport recv returns when the
// cooperative-abort channel fired while waiting. It never escapes the
// receive path: Recv translates it into a *RankFailedError.
var errAborted = errors.New("cluster: receive aborted by failure detector")

// rankBit returns the bitmap bit of a rank, or 0 for ranks outside the
// 64-rank elastic-membership range.
func rankBit(rank int) uint64 {
	if rank < 0 || rank >= 64 {
		return 0
	}
	return uint64(1) << uint(rank)
}

// firstRank returns the lowest rank set in the bitmap, or -1.
func firstRank(mask uint64) int {
	if mask == 0 {
		return -1
	}
	return bits.TrailingZeros64(mask)
}

// ranksOf expands a bitmap into its ranks in ascending order.
func ranksOf(mask uint64) []int {
	out := make([]int, 0, bits.OnesCount64(mask))
	for mask != 0 {
		r := bits.TrailingZeros64(mask)
		out = append(out, r)
		mask &^= uint64(1) << uint(r)
	}
	return out
}

// rankFailedFromBits builds the typed failure for a dead-set bitmap
// (lowest dead rank named).
func rankFailedFromBits(dead uint64, cause error) error {
	return &RankFailedError{Rank: firstRank(dead), Cause: cause}
}

// detector is the per-cluster failure detector. In-process it is shared
// by every rank goroutine; on a multi-process transport each process
// holds its own, fed by its local evidence (its receive timeouts, its
// connections' resets) — the full mesh makes a real death visible to
// every survivor independently.
type detector struct {
	mu sync.Mutex
	// suspects and confirmed are physical-rank bitmaps. A rank moves
	// suspects → confirmed on hard evidence and out of suspects again on
	// a successful delivery (piggybacked liveness); confirmed is cleared
	// only by forget (eviction).
	suspects  uint64
	confirmed uint64
	// causes records the first evidence per confirmed rank.
	causes map[int]error
	// notify is closed (and replaced) on every new confirm, waking armed
	// receives.
	notify chan struct{}
}

func newDetector() *detector {
	return &detector{causes: make(map[int]error), notify: make(chan struct{})}
}

// suspect marks a rank as suspected dead (receive timeout / exhausted
// retry budget). Idempotent; already-confirmed ranks stay confirmed.
func (d *detector) suspect(rank int) {
	bit := rankBit(rank)
	if bit == 0 {
		return
	}
	d.mu.Lock()
	if d.suspects&bit == 0 && d.confirmed&bit == 0 {
		d.suspects |= bit
		mSuspects.Inc()
		flight.Record(rank, telemetry.FlightSuspect, int64(rank), 0, 0, 0)
	}
	d.mu.Unlock()
}

// clear retracts a suspicion: the rank proved alive by delivering a
// message.
func (d *detector) clear(rank int) {
	bit := rankBit(rank)
	if bit == 0 {
		return
	}
	d.mu.Lock()
	d.suspects &^= bit
	d.mu.Unlock()
}

// confirm marks a rank as dead on hard evidence and wakes every armed
// receive. Only the first confirmation per rank counts (and keeps its
// cause).
func (d *detector) confirm(rank int, cause error) {
	bit := rankBit(rank)
	if bit == 0 {
		return
	}
	d.mu.Lock()
	if d.confirmed&bit == 0 {
		d.confirmed |= bit
		d.suspects &^= bit
		if cause != nil {
			d.causes[rank] = cause
		}
		mConfirms.Inc()
		flight.Record(rank, telemetry.FlightConfirm, int64(rank), 0, 0, 0)
		// Wake current watchers, then arm a fresh channel for the next
		// confirmation.
		close(d.notify)
		d.notify = make(chan struct{})
	}
	d.mu.Unlock()
}

// watch returns the channel closed by the next confirmation. Callers
// must fetch the channel BEFORE checking confirmedIn, or a confirmation
// landing between the check and the wait would be missed.
func (d *detector) watch() <-chan struct{} {
	d.mu.Lock()
	ch := d.notify
	d.mu.Unlock()
	return ch
}

// confirmedIn returns the confirmed-dead ranks within the mask.
func (d *detector) confirmedIn(mask uint64) uint64 {
	d.mu.Lock()
	v := d.confirmed & mask
	d.mu.Unlock()
	return v
}

// deadIn returns the suspected-or-confirmed ranks within the mask — the
// proposal a survivor feeds into AgreeDead.
func (d *detector) deadIn(mask uint64) uint64 {
	d.mu.Lock()
	v := (d.suspects | d.confirmed) & mask
	d.mu.Unlock()
	return v
}

// cause returns the recorded evidence for a confirmed rank, or nil.
func (d *detector) cause(rank int) error {
	d.mu.Lock()
	c := d.causes[rank]
	d.mu.Unlock()
	return c
}

// forget erases all state about a rank (it was evicted; the shrunken
// world has no member to suspect).
func (d *detector) forget(rank int) {
	bit := rankBit(rank)
	if bit == 0 {
		return
	}
	d.mu.Lock()
	d.suspects &^= bit
	d.confirmed &^= bit
	delete(d.causes, rank)
	d.mu.Unlock()
}

// --- Rank-level membership API -------------------------------------------

// PhysID returns this rank's immutable physical id: the id it was
// created with, unchanged by ShrinkWorld renumbering. Telemetry, traces
// and the flight recorder always speak physical ids.
func (r *Rank) PhysID() int { return r.phys }

// Members returns the physical ids of the current world members in
// virtual-rank order (Members()[v] is the physical id of virtual rank
// v). Before any shrink it is the identity [0..N).
func (r *Rank) Members() []int {
	out := make([]int, r.N)
	copy(out, r.membersList())
	return out
}

// membersList is the internal, non-copying view of Members.
func (r *Rank) membersList() []int {
	if r.members != nil {
		return r.members
	}
	ids := make([]int, r.N)
	for i := range ids {
		ids[i] = i
	}
	r.members = ids
	return ids
}

// peerPhys translates a virtual peer rank into its physical id.
func (r *Rank) peerPhys(v int) int {
	if r.members == nil {
		return v
	}
	return r.members[v]
}

// peerMask is the physical bitmap of the current members excluding this
// rank.
func (r *Rank) peerMask() uint64 {
	return r.memberMask &^ rankBit(r.phys)
}

// SetFailFast arms (or disarms) cooperative abort on this rank: while
// armed, a blocked Recv aborts with a *RankFailedError the moment the
// failure detector confirms any member dead, instead of waiting out its
// own RecvTimeout. The Shrink degradation rung arms it for the duration
// of the guarded collective. A no-op on worlds beyond the 64-rank
// elastic-membership limit.
func (r *Rank) SetFailFast(on bool) {
	r.failFast = on && r.c.cfg.Ranks <= 64
}

// SuspectedDead returns the physical bitmap of current members this
// process's failure detector holds suspected or confirmed dead (self
// excluded) — the proposal to feed into AgreeDead.
func (r *Rank) SuspectedDead() uint64 {
	return r.c.det.deadIn(r.peerMask())
}

// abortWatch returns the detector notification channel when cooperative
// abort is armed, else nil (a nil channel never fires).
func (r *Rank) abortWatch() <-chan struct{} {
	if !r.failFast {
		return nil
	}
	return r.c.det.watch()
}

// confirmedPeer returns the lowest confirmed-dead member other than
// `except` (pass -1 for none), or -1.
func (r *Rank) confirmedPeer(except int) int {
	return firstRank(r.c.det.confirmedIn(r.peerMask() &^ rankBit(except)))
}

// rankFailedErr builds the typed cooperative-abort error for a confirmed
// rank.
func (r *Rank) rankFailedErr(rank int) error {
	return &RankFailedError{Rank: rank, Cause: r.c.det.cause(rank)}
}

// peerFailedErr is the "peer will never send" receive error: typed with
// the detector's cause when one was recorded, the legacy ErrPeerFailed
// wrap otherwise.
func (r *Rank) peerFailedErr(from int) error {
	if cause := r.c.det.cause(from); cause != nil {
		return &RankFailedError{Rank: from, Cause: cause}
	}
	return fmt.Errorf("%w: rank %d", ErrPeerFailed, from)
}

// noteSuspect reports a receive stall on `from` to the failure detector,
// remembering locally that this rank raised it (so the matching success
// can retract it cheaply).
func (r *Rank) noteSuspect(from int) {
	if r.suspected&rankBit(from) != 0 {
		return
	}
	r.suspected |= rankBit(from)
	r.c.det.suspect(from)
}

// unsuspect retracts this rank's suspicion of `from` after a successful
// delivery (piggybacked liveness). One branch on the hot path.
func (r *Rank) unsuspect(from int) {
	if r.suspected&rankBit(from) == 0 {
		return
	}
	r.suspected &^= rankBit(from)
	r.c.det.clear(from)
}

// AgreeDead runs one death-tolerant membership consensus round: every
// *live* member contributes a proposed dead-set bitmap (physical ranks,
// from SuspectedDead), the round completes without waiting on members
// that died or exited, and every survivor receives the identical union
// of all proposals plus the members whose control links were seen closed.
// It is the same round as AgreeMax (agree.go): it synchronizes the
// survivors' clocks (tree cost over the participants) and is immune to
// injected point-to-point faults. The result is what survivors hand to
// ShrinkWorld — all of them receive the same bitmap, so all of them
// shrink to the same world.
func (r *Rank) AgreeDead(propose uint64) (uint64, error) {
	if r.c.cfg.Ranks > 64 {
		return 0, fmt.Errorf("%w: world has %d ranks", ErrWorldTooLarge, r.c.cfg.Ranks)
	}
	_, dead, err := r.agree(0, propose, true)
	return dead, err
}

// ShrinkWorld removes the agreed-dead ranks from this rank's world view:
// the survivors renumber densely (ID/N become the virtual view), the
// Topology drops the dead slots (emptied nodes disappear), consensus
// rounds stop waiting on the dead (they name the survivors only), the
// failure detector forgets them, and the message epoch advances so stale
// traffic from the abandoned attempt is discarded. A rank that finds
// itself in the dead set returns ErrEvicted and must exit; everyone else
// returns nil and continues on the shrunken world.
//
// All survivors must call ShrinkWorld with the same bitmap (the result
// of the same AgreeDead round) at the same point in program order.
// Evictions surface in Result.Evicted, the cluster.evictions counter and
// evict/shrink flight-recorder events.
func (r *Rank) ShrinkWorld(dead uint64) error {
	if r.c.cfg.Ranks > 64 {
		return fmt.Errorf("%w: world has %d ranks", ErrWorldTooLarge, r.c.cfg.Ranks)
	}
	dead &= r.memberMask
	if dead == 0 {
		return nil
	}
	if dead&rankBit(r.phys) != 0 {
		return fmt.Errorf("%w: rank %d", ErrEvicted, r.phys)
	}
	old := r.membersList()
	// Shrink the topology before renumbering: node sizes are indexed by
	// the current virtual ids.
	topo := r.c.cfg.Topology
	if r.topo != nil {
		topo = r.topo
	}
	r.topo = topo.Normalize(r.N).WithoutRanks(r.N, func(v int) bool {
		return dead&rankBit(old[v]) != 0
	})
	survivors := make([]int, 0, len(old))
	evicted := make([]int, 0, bits.OnesCount64(dead))
	for _, p := range old {
		if dead&rankBit(p) != 0 {
			evicted = append(evicted, p)
			continue
		}
		survivors = append(survivors, p)
	}
	// From here every consensus round names only the survivors, so the
	// evicted ranks' exits cannot abort it.
	r.members = survivors
	r.memberMask &^= dead
	r.N = len(survivors)
	for v, p := range survivors {
		if p == r.phys {
			r.ID = v
			break
		}
	}
	for _, e := range evicted {
		r.c.det.forget(e)
		flight.Record(r.phys, telemetry.FlightEvict, int64(e), 0, 0, 0)
	}
	r.c.noteEvict(evicted)
	flight.Record(r.phys, telemetry.FlightShrink, int64(r.N), int64(len(evicted)), 0, 0)
	if tr := r.c.trace; tr != nil {
		tr.recordInstant(Instant{Name: fmt.Sprintf("shrink world=%d", r.N), Rank: r.phys, Ts: r.wallNow()})
	}
	// Fresh epoch on the shrunken world: in-flight traffic of the
	// abandoned attempt (including anything the dead ranks sent) is
	// silently discarded by the epoch filter.
	r.AdvanceEpoch()
	return nil
}

// noteEvict records evictions at the cluster level (deduplicated across
// the survivor ranks that all report the same consensus).
func (c *Cluster) noteEvict(ranks []int) {
	c.evictMu.Lock()
	for _, e := range ranks {
		if !c.evicted[e] {
			c.evicted[e] = true
			mEvictions.Inc()
		}
	}
	c.evictMu.Unlock()
}

// evictedList returns the evicted physical ranks in ascending order.
func (c *Cluster) evictedList() []int {
	c.evictMu.Lock()
	out := make([]int, 0, len(c.evicted))
	for e := range c.evicted {
		out = append(out, e)
	}
	c.evictMu.Unlock()
	sort.Ints(out)
	return out
}
