package costmodel

import (
	"math"
	"slices"
	"sync"

	"hzccl/internal/cluster"
	"hzccl/internal/core"
)

// Topo is the shape of a cluster topology as the cost model's callers
// describe it: how many nodes, and the size of the largest one.
type Topo struct {
	Nodes   int
	MaxNode int
}

// FlatTopo is the shape of an unconfigured (single-node) topology.
func FlatTopo(world int) Topo { return Topo{Nodes: 1, MaxNode: world} }

// topology rebuilds a grouping of world ranks with t's shape: Nodes−1
// nodes share the ranks the largest leaves evenly, smallest first, then the
// largest (uniform when Nodes·MaxNode is world; nil is one node).
func (t Topo) topology(world int) *cluster.Topology {
	if t.Nodes <= 1 || t.MaxNode >= world {
		return nil
	}
	rest := world - t.MaxNode
	k := min(t.Nodes-1, rest)
	sizes := make([]int, 0, k+1)
	for i := range k {
		sizes = append(sizes, (rest+i)/k)
	}
	return &cluster.Topology{NodeSizes: append(sizes, t.MaxNode)}
}

// AllreduceAlgo prices an allreduce on a Topo shape, for callers that
// describe their topology by its shape alone. Passing core.AlgoAuto returns
// NaN — resolve it with Choose.
func (r Rates) AllreduceAlgo(b Backend, algo core.Algorithm, n int, dataBytes float64, topo Topo) float64 {
	return r.price("allreduce", b, algo, n, dataBytes, topo.topology(n))
}

// Choose returns the fixed algorithm with the lowest price for op on world
// ranks grouped as topo, and that price. Selection is deterministic:
// algorithms are scanned in core.FixedAlgorithms() order and ties keep the
// earliest.
func (r Rates) Choose(op string, b Backend, world int, dataBytes float64, topo *cluster.Topology) (core.Algorithm, float64) {
	best, bestT := core.AlgoRing, math.Inf(1)
	for i, t := range r.prices(op, b, world, dataBytes, topo) {
		if t < bestT {
			best, bestT = core.FixedAlgorithms()[i], t
		}
	}
	if math.IsInf(bestT, 1) {
		bestT = 0
	}
	return best, bestT
}

// price is fixed algorithm algo's price of op; NaN for AlgoAuto.
func (r Rates) price(op string, b Backend, algo core.Algorithm, world int, dataBytes float64, topo *cluster.Topology) float64 {
	i := slices.Index(core.FixedAlgorithms(), algo)
	if i < 0 {
		return math.NaN()
	}
	return r.prices(op, b, world, dataBytes, topo)[i]
}

// memoCap bounds the price table: a daemon fed ever new message sizes
// starts it afresh when it fills, rather than grow.
const memoCap = 1024

// memo is the process-wide price table, one entry per shape; concurrent
// askers of one new shape wait for one set of replays.
var memo = struct {
	sync.Mutex
	m map[priceKey]*memoEntry
}{m: make(map[priceKey]*memoEntry)}

type priceKey struct {
	op    string
	b     Backend
	world int
	topo  string // the grouping, as cluster.Topology.String spells it
	elems int
	r     Rates
}

type memoEntry struct {
	once sync.Once
	t    []float64
}

// prices is core.Price on these rates for every fixed algorithm, in
// core.FixedAlgorithms() order, memoised: the virtual seconds op takes on
// world ranks grouped as topo (nil: one node), each holding dataBytes of
// float32 values. NaN where the replay refuses the shape.
func (r Rates) prices(op string, b Backend, world int, dataBytes float64, topo *cluster.Topology) []float64 {
	k := priceKey{op: op, b: b, world: world, topo: topo.String(), elems: int(dataBytes / 4), r: r}
	memo.Lock()
	e, ok := memo.m[k]
	if !ok {
		if len(memo.m) >= memoCap {
			clear(memo.m)
		}
		e = &memoEntry{}
		memo.m[k] = e
	}
	memo.Unlock()
	e.once.Do(func() {
		for _, a := range core.FixedAlgorithms() {
			t, err := core.Price(op, b, a, world, topo, k.elems, r.Rates, r.Ratio, r.Alpha, r.Beta)
			if err != nil {
				t = math.NaN()
			}
			e.t = append(e.t, t)
		}
	})
	return e.t
}
