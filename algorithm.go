package hzccl

import (
	"hzccl/internal/cluster"
	"hzccl/internal/core"
	"hzccl/internal/costmodel"
	"hzccl/internal/telemetry"
)

// Algorithm selects which collective schedule Allreduce and ReduceScatter
// run. Every algorithm is implemented for all three backends, so a
// DegradePolicy ladder applies unchanged whichever algorithm is selected.
type Algorithm = core.Algorithm

// Algorithms. The zero value is the ring, preserving the behavior of all
// code written before algorithm selection existed.
const (
	// AlgoRing is the bandwidth-optimal ring schedule (the default).
	AlgoRing = core.AlgoRing
	// AlgoRecursiveDoubling exchanges full vectors pairwise over log₂N
	// rounds — latency-optimal, wins small messages.
	AlgoRecursiveDoubling = core.AlgoRecursiveDoubling
	// AlgoRabenseifner is recursive-halving reduce-scatter plus
	// recursive-doubling allgather.
	AlgoRabenseifner = core.AlgoRabenseifner
	// AlgoHierarchical is the two-level topology-aware schedule; node
	// grouping comes from ClusterConfig.Topology.
	AlgoHierarchical = core.AlgoHierarchical
	// AlgoAuto runs the fixed algorithm that a replay of each prices
	// cheapest for the message size, world size, backend and topology;
	// the choice is recorded in RunResult.AlgoChoices.
	AlgoAuto = core.AlgoAuto
)

// ParseAlgorithm parses the CLI spellings of an algorithm name
// (ring | rd | rabenseifner | hierarchical | auto).
func ParseAlgorithm(s string) (Algorithm, error) { return core.ParseAlgorithm(s) }

// Topology groups ranks into "nodes" for AlgoHierarchical; set it as
// ClusterConfig.Topology. Nil means one flat node holding every rank.
type Topology = cluster.Topology

// UniformTopology returns a topology of `nodes` nodes of `perNode` ranks.
func UniformTopology(nodes, perNode int) *Topology { return cluster.UniformTopology(nodes, perNode) }

// ParseTopology parses "8x4" (8 nodes of 4) or "3,5,8" (explicit sizes).
func ParseTopology(s string) (*Topology, error) { return cluster.ParseTopology(s) }

// ModelRates holds calibrated component throughputs in raw bytes/second,
// used both to charge modeled virtual time for compute
// (CollectiveOptions.Rates) and to drive AlgoAuto's selection.
type ModelRates = core.Rates

// DefaultAutoRates are the component throughputs AlgoAuto prices with
// when CollectiveOptions.Rates is nil, and the model rates the paper-scale
// sweep charges (BENCH_scaling.json): 1 / 2 / 8 / 6 GB/s compress,
// decompress, raw sum, homomorphic add. Pinned, so every rank on either
// fabric prices a shape alike; being below the AVX2 kernels' ≈ 5.5 / 6.9
// / 12 GB/s on CESM-ATM, they are why auto can miss for large messages.
var DefaultAutoRates = ModelRates{CPR: 1e9, DPR: 2e9, CPT: 8e9, HPR: 6e9}

// defaultAutoRatio is the compression ratio AlgoAuto's replays assume for
// the compressed backends' payloads.
const defaultAutoRatio = 4.0

// autoOverhead is LogP's per-message software overhead o that AlgoAuto adds
// to ClusterConfig.Latency when compute is wall-clock timed (Rates nil):
// 8 µs, the low end of one message's one-way cost on loopback TCP (15–28 µs
// round trips, 2-vCPU x86-64). It is a constant, not a measurement, because
// the schedule decides the result bits, so every rank must pick alike; the
// in-process fabric's clock charges α alone (DESIGN §13).
const autoOverhead = 8e-6

// AlgoChoice records which algorithm one collective call ran with.
type AlgoChoice struct {
	// Rank is the rank recording the choice (every rank resolves
	// identically; each records its own entry).
	Rank int
	// Op names the collective ("allreduce", "reduce_scatter").
	Op string
	// Backend is the backend the call ran under.
	Backend Backend
	// Algorithm is the fixed algorithm that actually executed.
	Algorithm Algorithm
	// Auto is true when the algorithm was resolved from AlgoAuto.
	Auto bool
	// ModeledSeconds is the price the pick was made on: the virtual time
	// a replay of the chosen schedule took, autoOverhead included per
	// message unless CollectiveOptions.Rates was set. With Rates set it is
	// the call's virtual time, but for compressed payloads' real sizes
	// against the replay's ratio of 4. 0 unless Auto.
	ModeledSeconds float64
}

// Per-algorithm selection counters, plus one for auto resolutions.
var (
	mAlgo = [...]*telemetry.Counter{
		AlgoRing:              telemetry.C("collective.algo.ring"),
		AlgoRecursiveDoubling: telemetry.C("collective.algo.rd"),
		AlgoRabenseifner:      telemetry.C("collective.algo.rabenseifner"),
		AlgoHierarchical:      telemetry.C("collective.algo.hierarchical"),
	}
	mAlgoAutoResolved = telemetry.C("collective.algo.auto_resolved")
)

// resolveAlgorithm maps the requested algorithm to the fixed one that
// will run, recorded (per rank) in RunResult.AlgoChoices and the
// collective.algo.* counters. AlgoAuto prices every fixed schedule by a
// replay of its own code (costmodel.Rates.Choose) at CollectiveOptions.Rates
// (or DefaultAutoRates and α + autoOverhead), the configured α and β, and
// ClusterConfig.Topology.
func (r *Rank) resolveAlgorithm(op string, b Backend, opt CollectiveOptions, dataLen int) Algorithm {
	algo, auto := opt.Algorithm, opt.Algorithm == AlgoAuto
	var modeled float64
	if auto {
		cfg := r.r.Config()
		rates := costmodel.Rates{Rates: DefaultAutoRates, Ratio: defaultAutoRatio, Alpha: cfg.Latency.Seconds() + autoOverhead, Beta: cfg.BandwidthBytes}
		if opt.Rates != nil {
			rates.Rates, rates.Alpha = *opt.Rates, cfg.Latency.Seconds()
		}
		algo, modeled = rates.Choose(op, b, r.Size(), float64(4*dataLen), cfg.Topology)
	}
	mAlgo[algo].Inc()
	if auto {
		mAlgoAutoResolved.Inc()
	}
	if r.rec != nil {
		r.rec.recordChoice(AlgoChoice{
			Rank: r.ID(), Op: op, Backend: b,
			Algorithm: algo, Auto: auto, ModeledSeconds: modeled,
		})
	}
	return algo
}
