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
	// AlgoAuto lets the (α, β) cost model pick per message size, world
	// size, backend and topology (α includes LogP's per-message overhead o
	// when CollectiveOptions.Rates is nil); the choice is recorded in
	// RunResult.AlgoChoices.
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

// DefaultAutoRates are the component throughputs AlgoAuto assumes when
// CollectiveOptions.Rates is nil, and the model rates the paper-scale
// sweep charges (BENCH_scaling.json): 1 GB/s compress, 2 GB/s decompress,
// 8 GB/s raw sum, 6 GB/s homomorphic add. They are pinned model numbers,
// not measurements — the AVX2 kernels run CESM-ATM at ≈ 5.5 / 6.9 / 12
// GB/s compress / decompress / add — and they, not the per-message
// overhead, are why auto can still miss the best schedule for large
// messages. Being package constants, the auto choice is deterministic for
// a given shape.
var DefaultAutoRates = ModelRates{CPR: 1e9, DPR: 2e9, CPT: 8e9, HPR: 6e9}

// defaultAutoRatio is the compression ratio the auto model assumes for
// the compressed backends' wire bytes.
const defaultAutoRatio = 4.0

// autoOverhead is LogP's per-message software overhead o, in seconds,
// that AlgoAuto adds to ClusterConfig.Latency when compute is timed by the
// wall clock (CollectiveOptions.Rates nil): 8 µs, the low end of one
// message's measured one-way cost on the loopback TCP transport (15–28 µs
// round trips on a 2-vCPU x86-64 host). With Rates set the virtual clock
// is the machine, and it charges α alone, so o is not added.
//
// Such picks are priced for TCP on both fabrics: the in-process fabric's
// virtual clock charges α alone too, so its ModeledSeconds include an o
// its RunResult.Seconds never contain. That is the price of agreement: it
// is a constant rather than a live measurement because every rank, on
// either fabric, must resolve auto to the same schedule — the schedule
// decides the result bits.
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
	// ModeledSeconds is the cost model's prediction for the chosen
	// algorithm, the cost the pick was made on: autoOverhead included
	// per message unless CollectiveOptions.Rates was set (auto resolutions
	// only; 0 otherwise).
	ModeledSeconds float64
}

// Per-algorithm selection counters, plus one for auto resolutions.
var (
	mAlgoRing         = telemetry.C("collective.algo.ring")
	mAlgoRD           = telemetry.C("collective.algo.rd")
	mAlgoRab          = telemetry.C("collective.algo.rabenseifner")
	mAlgoHier         = telemetry.C("collective.algo.hierarchical")
	mAlgoAutoResolved = telemetry.C("collective.algo.auto_resolved")
)

func countAlgo(algo Algorithm, auto bool) {
	switch algo {
	case AlgoRecursiveDoubling:
		mAlgoRD.Inc()
	case AlgoRabenseifner:
		mAlgoRab.Inc()
	case AlgoHierarchical:
		mAlgoHier.Inc()
	default:
		mAlgoRing.Inc()
	}
	if auto {
		mAlgoAutoResolved.Inc()
	}
}

// resolveAlgorithm maps the requested algorithm to the fixed one that
// will run: AlgoAuto asks the cost model. The resolution is recorded (per
// rank) in RunResult.AlgoChoices and the collective.algo.* counters.
func (r *Rank) resolveAlgorithm(op string, b Backend, opt CollectiveOptions, dataLen int) Algorithm {
	algo := opt.Algorithm
	auto := algo == AlgoAuto
	var modeled float64
	if auto {
		algo, modeled = r.chooseAlgorithm(op, b, opt, dataLen)
	}
	countAlgo(algo, auto)
	if r.rec != nil {
		r.rec.recordChoice(AlgoChoice{
			Rank: r.ID(), Op: op, Backend: b,
			Algorithm: algo, Auto: auto, ModeledSeconds: modeled,
		})
	}
	return algo
}

// chooseAlgorithm resolves AlgoAuto deterministically: component
// throughputs from CollectiveOptions.Rates (or DefaultAutoRates, plus the
// per-message overhead autoOverhead), α/β from the cluster configuration,
// topology shape from ClusterConfig.Topology.
func (r *Rank) chooseAlgorithm(op string, b Backend, opt CollectiveOptions, dataLen int) (Algorithm, float64) {
	cfg := r.r.Config()
	th, alpha := DefaultAutoRates, cfg.Latency.Seconds()
	if opt.Rates != nil {
		th = *opt.Rates
	} else {
		alpha += autoOverhead
	}
	rates := costmodel.Rates{
		Rates: th,
		Ratio: defaultAutoRatio,
		Alpha: alpha,
		Beta:  cfg.BandwidthBytes,
	}
	topo := costmodel.FlatTopo(r.Size())
	if t := cfg.Topology; t != nil {
		topo = costmodel.Topo{Nodes: t.Nodes(), MaxNode: t.MaxNodeSize()}
	}
	bytes := float64(4 * dataLen)
	if op == "reduce_scatter" {
		return rates.ChooseReduceScatter(b, r.Size(), bytes, topo)
	}
	return rates.ChooseAllreduce(b, r.Size(), bytes, topo)
}
