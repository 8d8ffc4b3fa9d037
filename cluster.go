package hzccl

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"hzccl/internal/cluster"
	"hzccl/internal/core"
	"hzccl/internal/telemetry"
)

// ClusterConfig describes the simulated multi-node machine the collectives
// run on: each rank is a goroutine with its own virtual clock; messages
// move real bytes while time is charged by an (α, β) network model.
type ClusterConfig struct {
	// Ranks is the number of simulated nodes (one process per node, as in
	// the paper's evaluation).
	Ranks int
	// Latency is the per-message latency α. 0 selects 1.5 µs.
	Latency time.Duration
	// BandwidthBytes is the per-link bandwidth β in bytes/second.
	// 0 selects 12.5e9 (100 Gbps line rate). The experiment harness uses
	// a lower, calibrated effective bandwidth; see DESIGN.md.
	BandwidthBytes float64
	// Fault, when non-nil, is consulted for every point-to-point message
	// and may drop, duplicate, corrupt or delay it (see Fault, NewChaos).
	// Leave nil for a healthy fabric.
	Fault Fault
	// Corrupt shapes FaultCorrupt injections (nil = single-bit default).
	Corrupt *CorruptPattern
	// RecvTimeout bounds the wall-clock time a receive waits for a
	// message. 0 waits forever; set it in fault-injection runs so a
	// dropped message surfaces as ErrRecvTimeout instead of a deadlock.
	RecvTimeout time.Duration
	// Reliable enables NACK-driven retransmission: corrupted or lost
	// messages are replayed from a bounded per-link sender window and
	// duplicates are silently deduplicated, so collectives complete with
	// correct results on a faulty fabric (at a physically modeled time
	// cost). Defaults RecvTimeout to 500ms when unset.
	Reliable bool
	// RetryBudget caps recovery attempts per message (0 = 8).
	RetryBudget int
	// RetryBackoff is the exponential-backoff base charged after each
	// failed recovery attempt (0 = 20µs of virtual time).
	RetryBackoff time.Duration
	// Transport selects the message fabric. Nil selects the default
	// in-process fabric: every rank is a goroutine of this process and the
	// virtual-time numbers are the calibrated ones all experiments report.
	// A *TCPTransport (see NewTCPTransport) makes this process one rank of
	// a multi-process cluster over real sockets; RunCluster then executes
	// the body only for the local rank, and peers run their own processes
	// against the same peer list.
	Transport Transport
	// Topology groups ranks into "nodes" for AlgoHierarchical and the
	// cost model behind AlgoAuto (see Topology, UniformTopology,
	// ParseTopology). Nil means one flat node holding every rank. Being
	// pure configuration, it works identically on every Transport.
	Topology *Topology
	// Trace, when non-nil, records the run's execution trace: virtual-time
	// slices, wall-clock compute spans, and one flow edge per
	// point-to-point message (send → recv), exported in Chrome trace-event
	// JSON by Trace.WriteChrome. On a TCP transport each process records
	// its own file; MergeChromeTraces joins them into one multi-process
	// timeline with arrows crossing process boundaries.
	Trace *Trace
}

// Trace accumulates the execution trace of one run; see
// ClusterConfig.Trace. The zero value is ready to use.
type Trace = cluster.Trace

// TraceMeta identifies the process that produced a trace file (rank,
// world size, wall-clock epoch); MergeChromeTraces uses it to align
// per-process files.
type TraceMeta = cluster.TraceMeta

// MergeChromeTraces joins per-process Chrome trace files from a
// TCP-transport run into one multi-rank timeline: pids are remapped per
// rank, wall clocks are aligned via the handshake-agreed epoch in each
// file's hzcclMeta, and send→recv flow arrows pair up across process
// boundaries. See `hzccl-collective -trace-merge`.
func MergeChromeTraces(w io.Writer, traces ...io.Reader) error {
	return cluster.MergeChromeTraces(w, traces...)
}

// Transport is the message fabric a cluster runs on. It is a sealed
// interface: the in-process fabric (the default) and the TCP mesh
// (NewTCPTransport) are the two implementations.
type Transport = cluster.Transport

// TCPTransport runs this process as one rank of a multi-process cluster
// over real TCP sockets.
type TCPTransport = cluster.TCPTransport

// TCPOptions configures NewTCPTransport.
type TCPOptions = cluster.TCPOptions

// NewTCPTransport forms the full TCP mesh for one rank of a multi-process
// cluster: it listens on Peers[Rank], dials every lower rank, accepts a
// connection from every higher one, and blocks until the mesh is complete
// or DialTimeout expires. Pass the result as ClusterConfig.Transport. All
// point-to-point integrity machinery (checksums, sequence numbers,
// NACK-driven retransmission, chaos hooks) and the (α, β) virtual-time
// model work identically on this fabric; RunResult additionally reports
// the real wall-clock time next to the model.
func NewTCPTransport(opt TCPOptions) (*TCPTransport, error) {
	return cluster.NewTCPTransport(opt)
}

// Backend selects a collective implementation.
type Backend = core.Flavor

// Collective backends.
const (
	// BackendMPI is the uncompressed baseline (original MPI collectives).
	BackendMPI = core.FlavorPlain
	// BackendCColl is the C-Coll baseline: compression-accelerated
	// collectives with the decompress-operate-compress workflow.
	BackendCColl = core.FlavorCColl
	// BackendHZCCL is the homomorphic co-design: operations run directly
	// on compressed blocks.
	BackendHZCCL = core.FlavorHZ
)

// CollectiveOptions configures the compressed backends.
type CollectiveOptions struct {
	// ErrorBound is the absolute error bound for compression. Required for
	// BackendCColl and BackendHZCCL.
	ErrorBound float64
	// MultiThread selects the multi-thread compression mode (the paper's
	// MT kernels): the compressor writes MTThreads chunks (default 18),
	// and every compute charge is divided by the constant speedup 6
	// (core.MTSpeedup, the paper's 18 threads at its Fig. 2 scaling).
	MultiThread bool
	MTThreads   int
	// Algorithm selects the collective schedule for Allreduce and
	// ReduceScatter: AlgoRing (the zero value, the historical behavior),
	// AlgoRecursiveDoubling, AlgoRabenseifner, AlgoHierarchical, or
	// AlgoAuto to let the cost model pick per shape. Every algorithm is
	// implemented for every backend. An out-of-range value is rejected
	// with ErrBadAlgorithm.
	Algorithm Algorithm
	// Rates are the throughputs compute is charged at (rawBytes/rate);
	// nil selects DefaultAutoRates, so a run's virtual time is the same on
	// any machine. AlgoAuto prices its candidates at the same throughputs,
	// and with Rates nil only, adds a per-message software overhead to the
	// latency (the virtual clock charges α alone, and so does a replay).
	Rates *ModelRates
	// Degrade, when non-nil, enables graceful backend degradation: if the
	// collective fails (retry budget exhausted, receive timeout), all
	// ranks agree to retry and, persistently failing, fall back down the
	// policy's ladder (HZCCL → C-Coll → MPI by default). Requires
	// ClusterConfig.RecvTimeout > 0. Downgrades are recorded in
	// RunResult.Degradations and the collective.degradations counter.
	// Supported by Allreduce, ReduceScatter and Reduce.
	Degrade *DegradePolicy
}

func (o CollectiveOptions) core() core.Options {
	mode := core.SingleThread
	if o.MultiThread {
		mode = core.MultiThread
	}
	return core.Options{
		ErrorBound: o.ErrorBound,
		Mode:       mode,
		MTThreads:  o.MTThreads,
		Rates:      o.Rates,
	}
}

// RunResult aggregates a finished cluster run.
type RunResult struct {
	// Seconds is the collective completion time in virtual seconds (the
	// maximum over ranks).
	Seconds float64
	// RankSeconds holds each rank's final virtual clock.
	RankSeconds []float64
	// Breakdown sums virtual time per category across ranks; keys are
	// "CPR", "DPR", "CPT", "HPR", "MPI", "OTHER". Range over
	// BreakdownShares instead when printing: map iteration order varies
	// run to run.
	Breakdown map[string]float64
	// Degradations records every backend downgrade a DegradePolicy
	// performed during the run, ordered by rank then occurrence.
	Degradations []Degradation
	// AlgoChoices records which algorithm each Allreduce/ReduceScatter
	// call resolved to (one entry per rank per call, ordered by rank then
	// occurrence), including cost-model resolutions of AlgoAuto. A long
	// session keeps only each rank's 64 most recent calls; the
	// collective.algo.* counters count them all.
	AlgoChoices []AlgoChoice
	// WallSeconds is the real elapsed time of the run, reported next to
	// the virtual model. On the default in-process fabric it covers every
	// rank's goroutine, whose compute runs concurrently; on a TCP
	// transport it is this process's end-to-end wall time.
	WallSeconds float64
	// Evicted lists the physical ranks removed from the world by a
	// membership shrink (DegradePolicy.Shrink) during the run, in
	// ascending order. Empty means the world finished intact. Surviving
	// ranks' results are reported under their original (physical) indices
	// in per-rank slices like RankSeconds.
	Evicted []int
}

// BreakdownShare is one category's absolute and fractional share of a
// run's summed virtual time.
type BreakdownShare struct {
	Category string
	Seconds  float64
	Fraction float64
}

// BreakdownShares returns the per-category shares in the fixed display
// order CPR, DPR, CPT, HPR, MPI, OTHER. Unlike ranging over the Breakdown
// map, iteration order is deterministic, so printed breakdowns (and any
// golden text derived from them) are reproducible run to run.
func (r *RunResult) BreakdownShares() []BreakdownShare {
	total := 0.0
	for _, v := range r.Breakdown {
		total += v
	}
	out := make([]BreakdownShare, 0, len(cluster.Categories))
	for _, cat := range cluster.Categories {
		s := BreakdownShare{Category: string(cat), Seconds: r.Breakdown[string(cat)]}
		if total > 0 {
			s.Fraction = s.Seconds / total
		}
		out = append(out, s)
	}
	return out
}

// Rank is one simulated process inside RunCluster. Its methods must only
// be called from the rank's own body function.
type Rank struct {
	r   *cluster.Rank
	rec *runRecorder
}

// ID returns this rank's index in [0, Size).
func (r *Rank) ID() int { return r.r.ID }

// Size returns the number of ranks in the cluster.
func (r *Rank) Size() int { return r.r.N }

// Send transmits bytes to a peer; the caller keeps its buffer and may reuse
// it once Send returns.
func (r *Rank) Send(to int, data []byte) error { return r.r.Send(to, data) }

// Recv blocks for the next message from a peer.
func (r *Rank) Recv(from int) ([]byte, error) { return r.r.Recv(from) }

// Barrier synchronizes all ranks and their virtual clocks. If a peer
// rank exits before reaching the barrier, the remaining ranks abort with
// an error (wrapping ErrPeerFailed) instead of waiting forever; with
// RecvTimeout set the wait is additionally deadline-bounded.
func (r *Rank) Barrier() error { return r.r.Barrier() }

// Allreduce sums data element-wise across all ranks and returns the full
// reduced vector, using the selected backend. All ranks must call it with
// equal-length data.
func (r *Rank) Allreduce(data []float32, b Backend, opt CollectiveOptions) ([]float32, error) {
	if err := validateOptions("allreduce", b, opt); err != nil {
		return nil, err
	}
	if opt.Degrade != nil {
		return r.runDegradable(b, opt, "allreduce", func(eff Backend) ([]float32, error) {
			o := opt
			o.Degrade = nil
			return r.Allreduce(data, eff, o)
		})
	}
	r.r.BeginOp("allreduce")
	algo := r.resolveAlgorithm("allreduce", b, opt, len(data))
	out, _, err := core.New(opt.core()).Allreduce(r.r, b, algo, data)
	return out, err
}

// ReduceScatter sums data element-wise across all ranks and returns this
// rank's owned block of the result (see OwnedBlock for its index).
func (r *Rank) ReduceScatter(data []float32, b Backend, opt CollectiveOptions) ([]float32, error) {
	if err := validateOptions("reduce_scatter", b, opt); err != nil {
		return nil, err
	}
	if opt.Degrade != nil {
		return r.runDegradable(b, opt, "reduce_scatter", func(eff Backend) ([]float32, error) {
			o := opt
			o.Degrade = nil
			return r.ReduceScatter(data, eff, o)
		})
	}
	r.r.BeginOp("reduce_scatter")
	algo := r.resolveAlgorithm("reduce_scatter", b, opt, len(data))
	out, _, err := core.New(opt.core()).ReduceScatter(r.r, b, algo, data)
	return out, err
}

// OwnedBlock returns the block index this rank holds after ReduceScatter,
// and the [start, end) element range of that block within the input.
func (r *Rank) OwnedBlock(dataLen int) (index, start, end int) {
	index = core.BlockOwned(r.r.ID, r.r.N)
	start, end = core.BlockBounds(dataLen, r.r.N, index)
	return
}

// RunCluster executes body once per rank, each on its own goroutine, and
// returns the virtual-time result. If any rank's body returns an error,
// RunCluster returns the first one after all ranks finish.
func RunCluster(cfg ClusterConfig, body func(*Rank) error) (*RunResult, error) {
	rec := &runRecorder{}
	res, err := cluster.Run(cluster.Config{
		Ranks:          cfg.Ranks,
		Latency:        cfg.Latency,
		BandwidthBytes: cfg.BandwidthBytes,
		Fault:          cfg.Fault,
		Corrupt:        cfg.Corrupt,
		RecvTimeout:    cfg.RecvTimeout,
		Reliable:       cfg.Reliable,
		RetryBudget:    cfg.RetryBudget,
		RetryBackoff:   cfg.RetryBackoff,
		Transport:      cfg.Transport,
		Topology:       cfg.Topology,
		Trace:          cfg.Trace,
	}, func(cr *cluster.Rank) error {
		return body(&Rank{r: cr, rec: rec})
	})
	if err != nil && !errors.Is(err, ErrRankKilled) && !errors.Is(err, ErrEvicted) {
		// A failed collective is exactly what the flight recorder exists
		// for: dump the last events (NACKs, retransmissions, faults,
		// consensus rounds) before the caller sees the error. Benign
		// errors — a rank crashed by an injected kill or evicted by a
		// shrink while the survivors completed — are the expected outcome
		// of an elastic run, not a post-mortem.
		dumpFlightOnError(err)
	}
	if res == nil {
		return nil, err
	}
	mWallSeconds.Observe(int64(res.WallSeconds * 1e9))
	out := &RunResult{
		Seconds:      res.Time,
		RankSeconds:  res.RankTimes,
		Breakdown:    make(map[string]float64, len(res.Breakdown)),
		Degradations: rec.take(),
		AlgoChoices:  rec.takeChoices(),
		WallSeconds:  res.WallSeconds,
		Evicted:      res.Evicted,
	}
	for k, v := range res.Breakdown {
		out.Breakdown[string(k)] = v
	}
	return out, err
}

// mWallSeconds is the real elapsed time of every RunCluster call.
// Observations are in nanoseconds (the registry's integer unit); the
// name matches RunResult.WallSeconds, the value it samples.
var mWallSeconds = telemetry.H("collective.wall_seconds", telemetry.DurationBuckets())

// flightDump controls the automatic flight-recorder dump on collective
// failure: nil (the default) disables it; CLIs opt in with
// SetFlightDumpWriter.
var (
	flightDumpMu sync.Mutex
	flightDump   io.Writer
)

// SetFlightDumpWriter makes every failed RunCluster dump the flight
// recorder's retained events to w (typically os.Stderr) before returning
// the error. Pass nil to disable. CLIs enable this so a chaos abort or
// exhausted retry budget ships its own post-mortem.
func SetFlightDumpWriter(w io.Writer) {
	flightDumpMu.Lock()
	flightDump = w
	flightDumpMu.Unlock()
}

func dumpFlightOnError(err error) {
	flightDumpMu.Lock()
	w := flightDump
	flightDumpMu.Unlock()
	if w == nil {
		return
	}
	fmt.Fprintf(w, "collective failed: %v\n", err)
	telemetry.Flight().WriteText(w)
}
