package conformance

import (
	"fmt"
	"math"
	"time"

	"hzccl/internal/cluster"
	"hzccl/internal/core"
)

// CollectiveOracle runs the same reduction through the Plain (uncompressed
// ring), C-Coll (compress-transfer-decompress-operate) and hZCCL
// (homomorphic) flavors on the cluster substrate and asserts cross-flavor
// agreement against an exact float64 reference. With a Fault installed the
// run error — not silent divergence — is the expected outcome, and it is
// returned to the caller for assertion.
type CollectiveOracle struct {
	// Opt configures the collectives under test (ErrorBound required).
	Opt core.Options
	// Algorithms, when non-empty, runs every flavor under each of the
	// listed fixed schedules (core.FixedAlgorithms covers all four) and
	// applies the full contract — reference agreement, bitwise
	// replication, cross-flavor differential — per schedule. Empty keeps
	// the historical ring-only behavior. AlgoAuto is rejected: the oracle
	// verifies schedules, not the selector.
	Algorithms []core.Algorithm
	// Topology, when non-nil, is the node grouping handed to the cluster;
	// the hierarchical schedules follow it, the flat ones ignore it.
	Topology *cluster.Topology
	// Latency and BandwidthBytes parameterize the fabric; zero selects the
	// cluster defaults.
	Latency        time.Duration
	BandwidthBytes float64
	// Fault, when non-nil, is installed on the fabric (see cluster.Fault).
	Fault cluster.Fault
	// RecvTimeout bounds Recv waits; set it alongside drop faults.
	RecvTimeout time.Duration
	// Reliable enables NACK-driven retransmission, turning injected faults
	// from expected run errors into recovered (and still checked) runs.
	Reliable bool
	// RetryBudget caps recovery attempts per message (0 = cluster default).
	RetryBudget int
	// Corrupt shapes FaultCorrupt injections (nil = single-bit default).
	Corrupt *cluster.CorruptPattern
}

func (o CollectiveOracle) config(ranks int) cluster.Config {
	return cluster.Config{
		Ranks:          ranks,
		Topology:       o.Topology,
		Latency:        o.Latency,
		BandwidthBytes: o.BandwidthBytes,
		Fault:          o.Fault,
		RecvTimeout:    o.RecvTimeout,
		Reliable:       o.Reliable,
		RetryBudget:    o.RetryBudget,
		Corrupt:        o.Corrupt,
	}
}

type collectiveKind int

const (
	kindReduceScatter collectiveKind = iota
	kindAllreduce
)

func (k collectiveKind) String() string {
	if k == kindAllreduce {
		return "allreduce"
	}
	return "reduce_scatter"
}

// flavorNames are the subjects the oracle reports each flavor under.
var flavorNames = map[core.Flavor]string{core.FlavorPlain: "plain", core.FlavorCColl: "ccoll", core.FlavorHZ: "hz"}

// CheckReduceScatter runs all three Reduce_scatter flavors over ranks
// processes, with gen(rank) producing each rank's (deterministic) input,
// and verifies every rank's owned block against the exact reference. The
// returned error is a run failure (e.g. an injected fault being detected);
// contract violations land in the Report.
func (o CollectiveOracle) CheckReduceScatter(ranks int, gen func(rank int) []float32) (*Report, error) {
	return o.check(kindReduceScatter, ranks, gen)
}

// CheckAllreduce is CheckReduceScatter for Allreduce: every rank must hold
// the full reduced vector, bitwise identical across ranks per flavor.
func (o CollectiveOracle) CheckAllreduce(ranks int, gen func(rank int) []float32) (*Report, error) {
	return o.check(kindAllreduce, ranks, gen)
}

func (o CollectiveOracle) check(kind collectiveKind, ranks int, gen func(int) []float32) (*Report, error) {
	rep := &Report{}
	inputs := make([][]float32, ranks)
	for i := range inputs {
		inputs[i] = gen(i)
		if len(inputs[i]) != len(inputs[0]) {
			return nil, fmt.Errorf("conformance: rank %d input length %d != rank 0 length %d",
				i, len(inputs[i]), len(inputs[0]))
		}
	}
	n := len(inputs[0])

	// Exact reference: element-wise float64 sum across ranks.
	ref := make([]float64, n)
	maxIn := 0.0
	for _, in := range inputs {
		for i, v := range in {
			ref[i] += float64(v)
		}
		if a := maxAbs32(in); a > maxIn {
			maxIn = a
		}
	}

	R := float64(ranks)
	eb := o.Opt.ErrorBound
	// Plain ring: R−1 float32 additions, each rounding a partial sum of
	// magnitude up to R·maxIn. The bound must scale with the summands, not
	// the final sum — cancellation can leave a reference far smaller than
	// the intermediate values whose roundings accumulate.
	plainTol := (R + 1) * R * (maxIn + 1e-300) * math.Pow(2, -23)

	algos := o.Algorithms
	if len(algos) == 0 {
		algos = []core.Algorithm{core.AlgoRing}
	}
	for _, algo := range algos {
		if !algo.Valid() || algo == core.AlgoAuto {
			return rep, fmt.Errorf("conformance: oracle requires fixed algorithms, got %v", algo)
		}
		compTol := compressedTol(algo, R, eb, plainTol)
		outputs := map[core.Flavor][][]float32{}
		for _, f := range core.Flavors() {
			outs, err := o.runFlavor(kind, f, algo, ranks, inputs)
			if err != nil {
				return rep, fmt.Errorf("%s %s@%s: %w", kind, flavorNames[f], algo, err)
			}
			outputs[f] = outs
			tol := plainTol
			if f != core.FlavorPlain {
				tol = compTol
			}
			o.checkFlavor(rep, kind, fmt.Sprintf("%s@%s", flavorNames[f], algo), ranks, n, outs, ref, tol)
		}

		// Direct cross-flavor differential between the two compressed
		// paths: the paper's claim is that the homomorphic flavor matches
		// C-Coll within the accumulated bound, not merely that both track
		// the exact sum loosely.
		o.crossFlavor(rep, kind, algo, ranks, n, outputs[core.FlavorCColl], outputs[core.FlavorHZ], 2*compTol)
	}
	return rep, nil
}

// compressedTol is the reference-agreement bound for a compressed flavor:
// one quantization per input plus one per reduction round, each bounded
// by eb, on top of the float32 accumulation error. The ring re-quantizes
// once per hop (folded into the 2·R·eb term); the doubling schedules once
// per log₂ round plus the non-power-of-two fold; the hierarchical
// schedule once per stage boundary (intra reduce-scatter, leader gather,
// inter ring, broadcast/scatter — plus the intra hops its two rings take,
// already covered by the R term).
func compressedTol(algo core.Algorithm, R, eb, plainTol float64) float64 {
	extra := 0.0
	switch algo {
	case core.AlgoRecursiveDoubling, core.AlgoRabenseifner:
		extra = 2 * (2*math.Ceil(math.Log2(R+1)) + 4) * eb
	case core.AlgoHierarchical:
		extra = 2 * 8 * eb
	}
	return 2*R*eb + extra + plainTol
}

// runFlavor executes one flavor × schedule on a fresh cluster and collects
// per-rank outputs.
func (o CollectiveOracle) runFlavor(kind collectiveKind, f core.Flavor, algo core.Algorithm, ranks int, inputs [][]float32) ([][]float32, error) {
	col := core.New(o.Opt)
	outs := make([][]float32, ranks)
	_, err := cluster.Run(o.config(ranks), func(r *cluster.Rank) (err error) {
		data := make([]float32, len(inputs[r.ID]))
		copy(data, inputs[r.ID])
		if kind == kindAllreduce {
			outs[r.ID], _, err = col.Allreduce(r, f, algo, data)
		} else {
			outs[r.ID], _, err = col.ReduceScatter(r, f, algo, data)
		}
		return err
	})
	return outs, err
}

// checkFlavor verifies one flavor's outputs against the reference.
func (o CollectiveOracle) checkFlavor(rep *Report, kind collectiveKind, name string, ranks, n int, outs [][]float32, ref []float64, tol float64) {
	subject := fmt.Sprintf("%s/%s", kind, name)
	for rank := 0; rank < ranks; rank++ {
		var want []float64
		base := 0
		if kind == kindAllreduce {
			want = ref
		} else {
			k := core.BlockOwned(rank, ranks)
			start, end := core.BlockBounds(n, ranks, k)
			want = ref[start:end]
			base = start
		}
		got := outs[rank]
		if len(got) != len(want) {
			rep.fail(Failure{
				Oracle: "collective", Subject: subject, Check: "length",
				Index: -1, Block: rank,
				Got: float64(len(got)), Want: float64(len(want)),
				Detail: fmt.Sprintf("rank %d output length", rank),
			})
			continue
		}
		rep.pass()
		bad := -1
		for i := range got {
			if math.Abs(float64(got[i])-want[i]) > tol {
				bad = i
				break
			}
		}
		if bad >= 0 {
			rep.fail(Failure{
				Oracle: "collective", Subject: subject, Check: "agreement",
				Index: base + bad, Block: rank,
				Got: float64(got[bad]), Want: want[bad],
				Detail: fmt.Sprintf("rank %d diverges from exact reference beyond %g", rank, tol),
			})
		} else {
			rep.pass()
		}
	}
	// Allreduce must leave every rank with the bitwise-identical vector.
	// Ring and hierarchical schedules reduce each block once and
	// broadcast it; the doubling schedules combine identical partials in
	// commuted operand orders, and float32 addition is commutative — so
	// even non-associativity cannot excuse a mismatch under any schedule.
	if kind == kindAllreduce && ranks > 1 {
		base := outs[0]
		for rank := 1; rank < ranks; rank++ {
			if idx := firstBitDifference(base, outs[rank]); idx >= 0 {
				rep.fail(Failure{
					Oracle: "collective", Subject: subject, Check: "replication",
					Index: idx, Block: rank,
					Got: float64(outs[rank][idx]), Want: float64(base[idx]),
					Detail: fmt.Sprintf("rank %d disagrees bitwise with rank 0", rank),
				})
			} else {
				rep.pass()
			}
		}
	}
}

// crossFlavor compares the two compressed flavors element-wise.
func (o CollectiveOracle) crossFlavor(rep *Report, kind collectiveKind, algo core.Algorithm, ranks, n int, ccoll, hz [][]float32, tol float64) {
	if ccoll == nil || hz == nil {
		return
	}
	subject := fmt.Sprintf("%s/ccoll vs hz@%s", kind, algo)
	for rank := 0; rank < ranks; rank++ {
		a, b := ccoll[rank], hz[rank]
		if len(a) != len(b) {
			rep.fail(Failure{
				Oracle: "collective", Subject: subject, Check: "length",
				Index: -1, Block: rank,
				Got: float64(len(b)), Want: float64(len(a)),
			})
			continue
		}
		if idx := firstDivergence(a, b, tol); idx >= 0 {
			rep.fail(Failure{
				Oracle: "collective", Subject: subject, Check: "cross",
				Index: idx, Block: rank,
				Got: float64(b[idx]), Want: float64(a[idx]),
				Detail: fmt.Sprintf("rank %d: compressed flavors disagree beyond %g", rank, tol),
			})
		} else {
			rep.pass()
		}
	}
}

// firstBitDifference returns the first index where two float32 slices are
// not bitwise identical, or -1. Lengths must match.
func firstBitDifference(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}
