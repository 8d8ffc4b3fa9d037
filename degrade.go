package hzccl

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"hzccl/internal/cluster"
	"hzccl/internal/telemetry"
)

// Graceful degradation: when a compressed backend repeatedly fails on a
// faulty fabric (retry budgets exhaust, peers time out), the collective
// falls back one rung down a backend ladder — BackendHZCCL → BackendCColl
// → BackendMPI by default — and retries the whole operation. All ranks
// must take the fallback together or the collective diverges (a ring can
// complete on some ranks while others fail), so each attempt ends with a
// message-free max-consensus over the per-rank outcome (AgreeMax, built
// on barrier machinery and therefore immune to injected message faults):
// every rank proposes ok / retry / shrink / abort, all adopt the maximum,
// and a retry advances the message epoch so stale traffic from the
// abandoned attempt is discarded rather than confused with the new
// attempt's.
//
// With DegradePolicy.Shrink, a rank that died outright (crash, connection
// reset, injected kill) takes a different path than a flaky one: the
// survivors agree on the dead set (AgreeDead), evict it, renumber into a
// dense world with the topology shrunk to the survivors (ShrinkWorld),
// and re-run the collective there — shrink-and-continue instead of
// descending the backend ladder against a peer that will never answer.

// mDegradations counts every backend downgrade performed by a
// DegradePolicy, across all ranks and runs.
var mDegradations = telemetry.C("collective.degradations")

// ErrDegradeNeedsTimeout is returned when a DegradePolicy is used without
// ClusterConfig.RecvTimeout: without a receive deadline a rank that
// abandons an attempt leaves its peers blocked forever, so the
// configuration is refused rather than allowed to deadlock.
var ErrDegradeNeedsTimeout = errors.New("hzccl: DegradePolicy requires ClusterConfig.RecvTimeout > 0 (an abandoned attempt must time out, not deadlock)")

// DegradePolicy enables graceful backend degradation for a collective
// call (set it as CollectiveOptions.Degrade).
type DegradePolicy struct {
	// Ladder is the ordered fallback sequence, starting at the requested
	// backend. Empty selects the default ladder for the requested backend:
	// HZCCL → C-Coll → MPI (shorter for lower starting rungs).
	Ladder []Backend
	// AttemptsPerBackend is how many times each rung is retried before
	// descending (0 = 2). Retries on the same rung handle transient
	// faults; descending handles persistent ones.
	AttemptsPerBackend int
	// Shrink adds the elastic-membership rung below the backend ladder:
	// when an attempt fails because a rank died (crash, connection reset,
	// injected kill), the survivors agree on the set of dead ranks
	// (AgreeDead), evict them, renumber themselves into a dense world with
	// the topology shrunk to the survivors (ShrinkWorld), and re-run the
	// collective on that world — instead of burning backend retries on a
	// peer that will never answer. Evictions are recorded in
	// RunResult.Evicted, the cluster.evictions counter and the flight
	// recorder. Requires a world of at most 64 ranks (the membership
	// bitmap); larger worlds are refused with ErrWorldTooLarge.
	Shrink bool
}

// Degradation records one backend downgrade performed during a run.
type Degradation struct {
	// Rank is the rank that recorded the downgrade (all ranks degrade
	// together; each records its own entry).
	Rank int
	// Op names the collective ("allreduce", "reduce_scatter", "reduce").
	Op string
	// From and To are the rungs descended between.
	From, To Backend
	// Reason is the error that drove the final attempt on From, if this
	// rank observed one ("peer-driven" when only a peer failed).
	Reason string
}

func (d Degradation) String() string {
	return fmt.Sprintf("rank %d %s: %s → %s (%s)", d.Rank, d.Op, d.From, d.To, d.Reason)
}

// maxAlgoChoices is how many of its most recent algorithm choices a run
// keeps per rank.
const maxAlgoChoices = 64

// runRecorder collects the per-rank event records of one cluster run:
// backend degradations and, per rank, the most recent maxAlgoChoices
// algorithm choices (a long session makes one per collective call, so an
// unbounded log grew with the number of calls).
type runRecorder struct {
	mu      sync.Mutex
	log     []Degradation
	choices [][]AlgoChoice // by rank; each holds at most 2·maxAlgoChoices
}

func (rec *runRecorder) record(d Degradation) {
	mDegradations.Inc()
	rec.mu.Lock()
	rec.log = append(rec.log, d)
	rec.mu.Unlock()
}

// take returns the records ordered by rank (then occurrence).
func (rec *runRecorder) take() []Degradation {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	out := make([]Degradation, len(rec.log))
	copy(out, rec.log)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

func (rec *runRecorder) recordChoice(ch AlgoChoice) {
	rec.mu.Lock()
	for len(rec.choices) <= ch.Rank {
		rec.choices = append(rec.choices, nil)
	}
	c := rec.choices[ch.Rank]
	if len(c) == 2*maxAlgoChoices {
		c = c[:copy(c, c[maxAlgoChoices:])] // drop the older half, in place
	}
	rec.choices[ch.Rank] = append(c, ch)
	rec.mu.Unlock()
}

// takeChoices returns each rank's most recent maxAlgoChoices algorithm
// choices, ordered by rank (then occurrence).
func (rec *runRecorder) takeChoices() []AlgoChoice {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var out []AlgoChoice
	for _, c := range rec.choices {
		out = append(out, c[max(0, len(c)-maxAlgoChoices):]...)
	}
	return out
}

// defaultLadder is the fallback sequence starting at b: each rung trades
// compression benefit for simpler, more robust data movement.
func defaultLadder(b Backend) []Backend {
	switch b {
	case BackendHZCCL:
		return []Backend{BackendHZCCL, BackendCColl, BackendMPI}
	case BackendCColl:
		return []Backend{BackendCColl, BackendMPI}
	default:
		return []Backend{BackendMPI}
	}
}

// Per-attempt outcome statuses agreed across ranks; the maximum wins.
const (
	agreeOK     = 0 // attempt succeeded everywhere → deliver results
	agreeRetry  = 1 // someone failed recoverably → retry / descend
	agreeShrink = 2 // someone observed a dead rank → evict it and re-run
	agreeAbort  = 3 // someone failed non-degradably → abort the collective
)

// degradable reports whether failing with err should trigger a retry on
// a lower rung (true) or abort the collective outright (false).
func degradable(err error) bool {
	// A structural misuse (bad peer index, mismatched epochs, missing
	// error bound, unknown algorithm) will fail identically on every rung
	// — or worse, "heal" by silently landing on the uncompressed rung;
	// abort instead.
	return !errors.Is(err, cluster.ErrBadPeer) &&
		!errors.Is(err, ErrBadErrorBound) &&
		!errors.Is(err, ErrBadAlgorithm)
}

// runDegradable runs one collective under a DegradePolicy: attempt,
// agree on the outcome with all ranks, and retry or descend the ladder
// until a rung succeeds everywhere or the ladder is exhausted.
func (r *Rank) runDegradable(b Backend, opt CollectiveOptions, op string, run func(Backend) ([]float32, error)) ([]float32, error) {
	pol := opt.Degrade
	ladder := pol.Ladder
	if len(ladder) == 0 {
		ladder = defaultLadder(b)
	}
	attempts := pol.AttemptsPerBackend
	if attempts <= 0 {
		attempts = 2
	}
	if r.r.Config().RecvTimeout <= 0 {
		// Without a receive deadline a rank that abandons an attempt
		// leaves its peers blocked forever; refuse rather than deadlock.
		return nil, ErrDegradeNeedsTimeout
	}
	if pol.Shrink {
		if r.Size() > 64 {
			return nil, fmt.Errorf("%w (DegradePolicy.Shrink tracks membership in a 64-bit bitmap)", ErrWorldTooLarge)
		}
		// Fail-fast receives: a confirmed rank death cancels in-flight
		// waits immediately (cooperative abort) instead of letting every
		// survivor burn a full RecvTimeout per blocked link.
		r.r.SetFailFast(true)
		defer r.r.SetFailFast(false)
	}

	rung, tries := 0, 0
	var lastErr error
	for {
		out, err := run(ladder[rung])
		lastErr = err
		if err != nil && (errors.Is(err, ErrRankKilled) || errors.Is(err, ErrEvicted)) {
			// This rank itself is dead (injected kill) or was evicted by
			// the survivors: it no longer participates in consensus.
			return nil, err
		}
		status := agreeOK
		if err != nil {
			status = agreeRetry
			if pol.Shrink && r.r.SuspectedDead() != 0 {
				// A member looks dead: propose eviction rather than burning
				// backend retries on a peer that will never answer.
				status = agreeShrink
			}
			if !degradable(err) {
				status = agreeAbort
			}
		}
		agreed, aerr := r.r.AgreeMax(status)
		if aerr != nil {
			if pol.Shrink && errors.Is(aerr, ErrPeerFailed) {
				// The consensus round itself lost a member. Every survivor
				// observes the same aborted round, so all adopt shrink and
				// proceed to membership consensus together.
				agreed = agreeShrink
			} else if err != nil {
				return nil, fmt.Errorf("hzccl: %s degradation consensus failed: %v (local error: %w)", op, aerr, err)
			} else {
				return nil, fmt.Errorf("hzccl: %s degradation consensus failed: %w", op, aerr)
			}
		}
		switch agreed {
		case agreeOK:
			return out, nil
		case agreeAbort:
			if err == nil {
				err = fmt.Errorf("hzccl: %s aborted by a peer's non-degradable failure", op)
			}
			return nil, err
		case agreeShrink:
			dead, merr := r.r.AgreeDead(r.r.SuspectedDead())
			if merr != nil {
				return nil, fmt.Errorf("hzccl: %s membership consensus failed: %w", op, merr)
			}
			if dead != 0 {
				// Evict the dead, renumber into the dense survivor world
				// (ShrinkWorld advances the epoch itself) and re-run this
				// rung from a clean slate.
				if serr := r.r.ShrinkWorld(dead); serr != nil {
					return nil, fmt.Errorf("hzccl: %s shrink failed: %w", op, serr)
				}
				tries = 0
				continue
			}
			// False alarm (a suspect recovered before the membership round):
			// fall through to plain retry bookkeeping.
		}
		// agreeRetry: discard the abandoned attempt's in-flight traffic,
		// then either retry this rung or descend.
		r.r.AdvanceEpoch()
		tries++
		if tries >= attempts {
			if rung+1 >= len(ladder) {
				if err == nil {
					err = fmt.Errorf("hzccl: %s failed on every backend in the ladder (last rung %s)", op, ladder[rung])
				}
				return nil, fmt.Errorf("hzccl: %s degradation ladder exhausted: %w", op, err)
			}
			reason := "peer-driven"
			if lastErr != nil {
				reason = lastErr.Error()
			}
			if r.rec != nil {
				r.rec.record(Degradation{Rank: r.ID(), Op: op, From: ladder[rung], To: ladder[rung+1], Reason: reason})
			} else {
				mDegradations.Inc()
			}
			r.r.NoteDegrade(int(ladder[rung]), int(ladder[rung+1]))
			rung++
			tries = 0
		}
	}
}
