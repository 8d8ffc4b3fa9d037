package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hzccl/internal/cluster"
	"hzccl/internal/floatbytes"
)

// Bit-identity of the plain data path. The schedules reduce straight from
// wire bytes (floatbytes.AddInto) in place; the reference below performs,
// with no fabric at all, the arithmetic the plain flavor has always
// defined: encode the sender's floats, decode them into a fresh slice
// (floatbytes.Bytes / Floats — the pre-rewrite serializer) and accumulate
// with addInto, in each schedule's own order. Every world × schedule ×
// length must agree bitwise.

// wire is what a receiver used to see: the sender's floats through the
// allocating encode/decode pair.
func wire(v []float32) []float32 { return floatbytes.Floats(floatbytes.Bytes(v)) }

// addInto is the reference accumulate: dst[i] += src[i], ascending.
func addInto(dst, src []float32) {
	for i, v := range src {
		dst[i] += v
	}
}

func cloneAll(vecs [][]float32) [][]float32 {
	out := make([][]float32, len(vecs))
	for i, v := range vecs {
		out[i] = append([]float32(nil), v...)
	}
	return out
}

// refRingReduceScatter steps the ring reduce-scatter over the members'
// vectors and returns every member's accumulator (its owned block final).
func refRingReduceScatter(vecs [][]float32) [][]float32 {
	n, acc := len(vecs), cloneAll(vecs)
	for step := 0; step < n-1; step++ {
		sent := make([][]float32, n)
		for r := range acc {
			s, e := BlockBounds(len(acc[r]), n, (r-step+n)%n)
			sent[r] = wire(acc[r][s:e])
		}
		for r := range acc {
			s, e := BlockBounds(len(acc[r]), n, (r-step-1+n)%n)
			addInto(acc[r][s:e], sent[(r-1+n)%n])
		}
	}
	return acc
}

// refRingAllreduce is the ring reduce-scatter plus the allgather of the
// owned blocks: one vector, identical on every member.
func refRingAllreduce(vecs [][]float32) []float32 {
	n, acc := len(vecs), refRingReduceScatter(vecs)
	out := make([]float32, len(vecs[0]))
	for r := range acc {
		s, e := BlockBounds(len(out), n, BlockOwned(r, n))
		copy(out[s:e], wire(acc[r][s:e]))
	}
	return out
}

// refFold applies the non-power-of-two fold and returns the active ranks'
// vectors indexed by newrank.
func refFold(vecs [][]float32) (active [][]float32, p2 int) {
	n, acc := len(vecs), cloneAll(vecs)
	p2, _ = activeRanks(0, n)
	active = make([][]float32, p2)
	for r := range acc {
		_, nr := activeRanks(r, n)
		if nr < 0 {
			continue
		}
		if r < 2*(n-p2) {
			addInto(acc[r], wire(acc[r-1]))
		}
		active[nr] = acc[r]
	}
	return active, p2
}

// refRD steps recursive doubling; the result is what every rank holds
// (folded-out ranks receive their neighbour's vector verbatim).
func refRD(vecs [][]float32) [][]float32 {
	active, p2 := refFold(vecs)
	for dist := 1; dist < p2; dist <<= 1 {
		sent := make([][]float32, p2)
		for x := range active {
			sent[x] = wire(active[x])
		}
		for x := range active {
			addInto(active[x], sent[x^dist])
		}
	}
	return unfoldRef(active, len(vecs), p2)
}

func unfoldRef(active [][]float32, n, p2 int) [][]float32 {
	out := make([][]float32, n)
	for r := range out {
		_, nr := activeRanks(r, n)
		if nr < 0 {
			_, nr = activeRanks(r+1, n)
		}
		out[r] = wire(active[nr])
	}
	return out
}

// refRabenseifner steps recursive halving then recursive doubling.
func refRabenseifner(vecs [][]float32) [][]float32 {
	active, p2 := refFold(vecs)
	L := len(vecs[0])
	span := func(v []float32, lo, hi int) []float32 {
		s, _ := BlockBounds(L, p2, lo)
		_, e := BlockBounds(L, p2, hi-1)
		return v[s:e]
	}
	lo, hi := make([]int, p2), make([]int, p2)
	for x := range hi {
		hi[x] = p2
	}
	for dist := p2 / 2; dist >= 1; dist /= 2 {
		sent := make([][]float32, p2)
		keepLo, keepHi := make([]int, p2), make([]int, p2)
		for x := range active {
			mid := (lo[x] + hi[x]) / 2
			if x&dist == 0 {
				keepLo[x], keepHi[x] = lo[x], mid
				sent[x] = wire(span(active[x], mid, hi[x]))
			} else {
				keepLo[x], keepHi[x] = mid, hi[x]
				sent[x] = wire(span(active[x], lo[x], mid))
			}
		}
		for x := range active {
			addInto(span(active[x], keepLo[x], keepHi[x]), sent[x^dist])
			lo[x], hi[x] = keepLo[x], keepHi[x]
		}
	}
	for dist := 1; dist < p2; dist *= 2 {
		sent := make([][]float32, p2)
		for x := range active {
			sent[x] = wire(span(active[x], lo[x], hi[x]))
		}
		for x := range active {
			w := hi[x] - lo[x]
			if x&dist == 0 {
				copy(span(active[x], hi[x], hi[x]+w), sent[x^dist])
				hi[x] += w
			} else {
				copy(span(active[x], lo[x]-w, lo[x]), sent[x^dist])
				lo[x] -= w
			}
		}
	}
	return unfoldRef(active, len(vecs), p2)
}

// refHier steps the two-level schedule: ring reduce-scatter inside each
// node, owned blocks gathered at the leader, ring allreduce across the
// leaders. Every rank ends with the leaders' vector.
func refHier(vecs [][]float32, topo *cluster.Topology) []float32 {
	topo = topo.Normalize(len(vecs))
	partials := make([][]float32, topo.Nodes())
	for node := range partials {
		members := topo.Members(node)
		in := make([][]float32, len(members))
		for j, g := range members {
			in[j] = vecs[g]
		}
		acc := refRingReduceScatter(in)
		partials[node] = make([]float32, len(vecs[0]))
		for j := range members {
			s, e := BlockBounds(len(vecs[0]), len(members), BlockOwned(j, len(members)))
			copy(partials[node][s:e], wire(acc[j][s:e]))
		}
	}
	return refRingAllreduce(partials)
}

// refReduce steps the binomial-tree reduce towards root.
func refReduce(vecs [][]float32, root int) []float32 {
	n, acc := len(vecs), cloneAll(vecs)
	// Children fold into parents lowest mask first, exactly as each parent
	// receives them; a child's subtree is complete before it is sent.
	for mask := 1; mask < n; mask <<= 1 {
		for v := 0; v < n; v++ {
			if v&mask != 0 || v&(mask-1) != 0 || v|mask >= n {
				continue
			}
			addInto(acc[unvrank(v, root, n)], wire(acc[unvrank(v|mask, root, n)]))
		}
	}
	return acc[root]
}

// wideField draws floats over many binades, both signs, so that any change
// in the order or grouping of float32 additions changes result bits.
func wideField(rank, n int) []float32 {
	rng := rand.New(rand.NewSource(int64(rank)*104729 + int64(n)))
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64() * math.Pow(2, float64(rng.Intn(24)-12)))
	}
	return out
}

func sameBits(t *testing.T, label string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, reference has %d", label, len(got), len(want))
	}
	for i := range want {
		if a, b := math.Float32bits(got[i]), math.Float32bits(want[i]); a != b {
			t.Fatalf("%s: element %d is %08x (%g), reference %08x (%g)", label, i, a, got[i], b, want[i])
		}
	}
}

// identityTopologies names one non-trivial node grouping per world.
var identityTopologies = map[int]string{1: "1", 2: "1,1", 3: "2,1", 4: "2x2", 5: "3,2", 7: "3,4", 8: "3,5"}

func TestPlainBitIdentity(t *testing.T) {
	c := New(Options{})
	for _, world := range []int{1, 2, 3, 4, 5, 7, 8} {
		topo, err := cluster.ParseTopology(identityTopologies[world])
		if err != nil {
			t.Fatal(err)
		}
		lengths := []int{0, 1, world - 1, 1 << 16, 1000003}
		if testing.Short() || raceEnabled {
			// The million-element row costs minutes under the race
			// detector and adds arithmetic, not interleavings.
			lengths = lengths[:4]
		}
		for _, n := range lengths {
			vecs := make([][]float32, world)
			for r := range vecs {
				vecs[r] = wideField(r, n)
			}
			ring := refRingAllreduce(vecs)
			hier := refHier(vecs, topo)
			rsAcc := refRingReduceScatter(vecs)
			rd, rab := refRD(vecs), refRabenseifner(vecs)
			reduced := refReduce(vecs, world/2)

			type result struct{ ring, rs, rd, rab, hier, hierRS, reduce []float32 }
			outs := make([]result, world)
			runClusterTopo(t, world, topo, func(r *cluster.Rank) error {
				o, data := &outs[r.ID], vecs[r.ID]
				var err error
				allreduce := func(dst *[]float32, a Algorithm) {
					if err == nil {
						*dst, _, err = c.Allreduce(r, FlavorPlain, a, data)
					}
				}
				reduceScatter := func(dst *[]float32, a Algorithm) {
					if err == nil {
						*dst, _, err = c.ReduceScatter(r, FlavorPlain, a, data)
					}
				}
				allreduce(&o.ring, AlgoRing)
				reduceScatter(&o.rs, AlgoRing)
				allreduce(&o.rd, AlgoRecursiveDoubling)
				allreduce(&o.rab, AlgoRabenseifner)
				allreduce(&o.hier, AlgoHierarchical)
				reduceScatter(&o.hierRS, AlgoHierarchical)
				if err == nil {
					o.reduce, _, err = c.Reduce(r, FlavorPlain, data, world/2)
				}
				return err
			})
			for rk, o := range outs {
				at := fmt.Sprintf("world %d n %d rank %d", world, n, rk)
				s, e := BlockBounds(n, world, BlockOwned(rk, world))
				sameBits(t, at+" ring allreduce", o.ring, ring)
				sameBits(t, at+" ring reduce-scatter", o.rs, rsAcc[rk][s:e])
				sameBits(t, at+" recursive doubling", o.rd, rd[rk])
				sameBits(t, at+" rabenseifner", o.rab, rab[rk])
				sameBits(t, at+" hierarchical "+topo.String(), o.hier, hier)
				sameBits(t, at+" hierarchical reduce-scatter", o.hierRS, hier[s:e])
				if rk == world/2 {
					sameBits(t, at+" reduce", o.reduce, reduced)
				} else if o.reduce != nil {
					t.Fatalf("%s: non-root got a reduce result", at)
				}
			}
		}
	}
}

// TestPlainDataMovementBitIdentity: the plain data-movement collectives
// deliver every float bit for bit, special values included.
func TestPlainDataMovementBitIdentity(t *testing.T) {
	c := New(Options{})
	specials := []uint32{0x7fc00001, 0xffc12345, 0x7fa00000, 0x80000000, 0x00000001, 0x807fffff, 0x7f800000, 0xff800000}
	for _, world := range []int{1, 2, 3, 4, 5, 7, 8} {
		for _, n := range []int{0, 1, world - 1, 4099} {
			vecs := make([][]float32, world)
			for r := range vecs {
				vecs[r] = wideField(r, n)
				for i := range vecs[r] {
					if i%5 == 0 {
						vecs[r][i] = math.Float32frombits(specials[(i/5+r)%len(specials)])
					}
				}
			}
			root := world - 1
			type result struct {
				bcast            []float32
				gather, all, a2a [][]float32
			}
			outs := make([]result, world)
			runCluster(t, world, func(r *cluster.Rank) (err error) {
				o := &outs[r.ID]
				if o.bcast, err = c.Broadcast(r, FlavorPlain, vecs[root], root); err != nil {
					return err
				}
				if o.gather, err = c.Gather(r, FlavorPlain, vecs[r.ID], root); err != nil {
					return err
				}
				if o.all, err = c.Allgather(r, FlavorPlain, vecs[r.ID]); err != nil {
					return err
				}
				o.a2a, err = c.Alltoall(r, FlavorPlain, vecs[r.ID])
				return err
			})
			for rk, o := range outs {
				at := fmt.Sprintf("world %d n %d rank %d", world, n, rk)
				sameBits(t, at+" broadcast", o.bcast, vecs[root])
				if (o.gather != nil) != (rk == root) {
					t.Fatalf("%s: gather result on the wrong rank", at)
				}
				for src := 0; src < world; src++ {
					if rk == root {
						sameBits(t, at+" gather", o.gather[src], vecs[src])
					}
					sameBits(t, at+" allgather", o.all[src], vecs[src])
					s, e := BlockBounds(n, world, rk)
					sameBits(t, at+" alltoall", o.a2a[src], vecs[src][s:e])
				}
			}
		}
	}
}
