package core

import "fmt"

// Algorithm selects which collective algorithm family a reduction runs.
// Every algorithm is implemented for all three backends (Plain, C-Coll,
// hZCCL), so backend degradation ladders apply unchanged whichever
// algorithm is selected.
type Algorithm int

// Algorithms. The zero value is the ring, preserving the behavior of all
// code written before algorithm selection existed.
const (
	// AlgoRing is the bandwidth-optimal ring (N−1 reduce-scatter steps +
	// N−1 allgather steps) — the paper's showcase schedule.
	AlgoRing Algorithm = iota
	// AlgoRecursiveDoubling exchanges full partial vectors pairwise over
	// log₂(N) rounds — latency-optimal, bandwidth-heavy; wins for small
	// messages.
	AlgoRecursiveDoubling
	// AlgoRabenseifner is recursive-halving reduce-scatter followed by
	// recursive-doubling allgather: log₂(N) rounds at near-ring bandwidth.
	AlgoRabenseifner
	// AlgoHierarchical is the two-level topology-aware schedule: ring
	// reduce-scatter inside each node, ring exchange among node leaders,
	// then an intra-node binomial broadcast (or scatter, for
	// reduce-scatter). Node grouping comes from cluster.Config.Topology.
	AlgoHierarchical
	// AlgoAuto asks the (α, β) cost model to pick per message size, world
	// size, backend and topology (α includes LogP's per-message overhead
	// o when compute is wall-clock timed). Resolved before the collective runs;
	// the chosen fixed algorithm is what actually executes.
	AlgoAuto
)

func (a Algorithm) String() string {
	switch a {
	case AlgoRing:
		return "ring"
	case AlgoRecursiveDoubling:
		return "rd"
	case AlgoRabenseifner:
		return "rabenseifner"
	case AlgoHierarchical:
		return "hierarchical"
	case AlgoAuto:
		return "auto"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm parses the CLI spellings of an algorithm name.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "ring", "":
		return AlgoRing, nil
	case "rd", "recursive-doubling":
		return AlgoRecursiveDoubling, nil
	case "rab", "rabenseifner", "recursive":
		return AlgoRabenseifner, nil
	case "hier", "hierarchical":
		return AlgoHierarchical, nil
	case "auto":
		return AlgoAuto, nil
	}
	return 0, fmt.Errorf("core: unknown algorithm %q (want ring|rd|rabenseifner|hierarchical|auto)", s)
}

// Valid reports whether a names a defined algorithm (including AlgoAuto).
func (a Algorithm) Valid() bool { return a >= AlgoRing && a <= AlgoAuto }

// FixedAlgorithms lists every concrete algorithm (everything but
// AlgoAuto) in deterministic selection order.
func FixedAlgorithms() []Algorithm {
	return []Algorithm{AlgoRing, AlgoRecursiveDoubling, AlgoRabenseifner, AlgoHierarchical}
}
