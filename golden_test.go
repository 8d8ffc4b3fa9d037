package hzccl_test

import (
	"fmt"
	"hash/crc32"
	"testing"
	"time"

	"hzccl"
	"hzccl/internal/datasets"
	"hzccl/internal/floatbytes"
)

// TestDigestGoldens pins the result bits of every backend × schedule cell.
// Rank r contributes SimSet1 field r (256 KiB), the compressed backends run
// at ErrorBound 1e-2, and a digest is crc32c over every rank's little-endian
// result bits in rank order (a nil result adds nothing). The digests were
// recorded at commit 2b6fbc6, the last one with a hand-written schedule per
// flavor; a changed digest means a change to the order or grouping of
// float32 additions, to what gets quantized when, or to which rank's bytes a
// rank decodes.
func TestDigestGoldens(t *testing.T) {
	const maxRanks = 5
	inputs := make([][]float32, maxRanks)
	for i := range inputs {
		var err error
		if inputs[i], err = datasets.Field("SimSet1", i, 1<<16); err != nil {
			t.Fatal(err)
		}
	}
	type shape struct {
		nodes    int
		topology string
	}
	shapes := []shape{{4, ""}, {5, ""}, {4, "2x2"}, {5, "2,3"}}
	backends := []hzccl.Backend{hzccl.BackendMPI, hzccl.BackendCColl, hzccl.BackendHZCCL}
	algos := []hzccl.Algorithm{hzccl.AlgoRing, hzccl.AlgoRecursiveDoubling, hzccl.AlgoRabenseifner, hzccl.AlgoHierarchical}

	type row struct {
		op      string
		backend hzccl.Backend
		shape   shape
		algo    hzccl.Algorithm
	}
	var rows []row
	for _, b := range backends {
		for _, s := range shapes {
			for _, a := range algos {
				rows = append(rows, row{"allreduce", b, s, a})
			}
			rows = append(rows, row{"reduce_scatter", b, s, hzccl.AlgoRing}, row{"reduce_scatter", b, s, hzccl.AlgoHierarchical})
		}
		rows = append(rows, row{"reduce", b, shape{5, ""}, hzccl.AlgoRing})
	}

	table := crc32.MakeTable(crc32.Castagnoli)
	for _, g := range rows {
		name := fmt.Sprintf("%s/%v/nodes=%d/topology=%q/%v", g.op, g.backend, g.shape.nodes, g.shape.topology, g.algo)
		cfg := hzccl.ClusterConfig{Ranks: g.shape.nodes, Latency: 2 * time.Microsecond, BandwidthBytes: 0.4e9, RecvTimeout: 2 * time.Second}
		if g.shape.topology != "" {
			var err error
			if cfg.Topology, err = hzccl.ParseTopology(g.shape.topology); err != nil {
				t.Fatal(err)
			}
		}
		opt := hzccl.CollectiveOptions{ErrorBound: 1e-2, Algorithm: g.algo}
		outs := make([][]float32, g.shape.nodes)
		_, err := hzccl.RunCluster(cfg, func(r *hzccl.Rank) (err error) {
			switch g.op {
			case "allreduce":
				outs[r.ID()], err = r.Allreduce(inputs[r.ID()], g.backend, opt)
			case "reduce_scatter":
				outs[r.ID()], err = r.ReduceScatter(inputs[r.ID()], g.backend, opt)
			default:
				outs[r.ID()], err = r.Reduce(inputs[r.ID()], 1, g.backend, opt)
			}
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var digest uint32
		for _, out := range outs {
			digest = crc32.Update(digest, table, floatbytes.Bytes(out))
		}
		if want, ok := digestGoldens[name]; !ok {
			t.Errorf("%s: no golden; digest %#08x", name, digest)
		} else if digest != want {
			t.Errorf("%s: digest %#08x, golden %#08x", name, digest, want)
		}
	}
	if len(digestGoldens) != len(rows) {
		t.Errorf("%d goldens for %d rows", len(digestGoldens), len(rows))
	}
}

var digestGoldens = map[string]uint32{
	`allreduce/MPI/nodes=4/topology=""/ring`:                    0xc1f8ae79,
	`allreduce/MPI/nodes=4/topology=""/rd`:                      0x0ba7b21e,
	`allreduce/MPI/nodes=4/topology=""/rabenseifner`:            0xa842a74b,
	`allreduce/MPI/nodes=4/topology=""/hierarchical`:            0xc1f8ae79,
	`reduce_scatter/MPI/nodes=4/topology=""/ring`:               0x58469bf9,
	`reduce_scatter/MPI/nodes=4/topology=""/hierarchical`:       0x58469bf9,
	`allreduce/MPI/nodes=5/topology=""/ring`:                    0x5445e54e,
	`allreduce/MPI/nodes=5/topology=""/rd`:                      0x68079afe,
	`allreduce/MPI/nodes=5/topology=""/rabenseifner`:            0x044f8dc0,
	`allreduce/MPI/nodes=5/topology=""/hierarchical`:            0x5445e54e,
	`reduce_scatter/MPI/nodes=5/topology=""/ring`:               0x67727e72,
	`reduce_scatter/MPI/nodes=5/topology=""/hierarchical`:       0x67727e72,
	`allreduce/MPI/nodes=4/topology="2x2"/ring`:                 0xc1f8ae79,
	`allreduce/MPI/nodes=4/topology="2x2"/rd`:                   0x0ba7b21e,
	`allreduce/MPI/nodes=4/topology="2x2"/rabenseifner`:         0xa842a74b,
	`allreduce/MPI/nodes=4/topology="2x2"/hierarchical`:         0x0ba7b21e,
	`reduce_scatter/MPI/nodes=4/topology="2x2"/ring`:            0x58469bf9,
	`reduce_scatter/MPI/nodes=4/topology="2x2"/hierarchical`:    0xe63d5e27,
	`allreduce/MPI/nodes=5/topology="2,3"/ring`:                 0x5445e54e,
	`allreduce/MPI/nodes=5/topology="2,3"/rd`:                   0x68079afe,
	`allreduce/MPI/nodes=5/topology="2,3"/rabenseifner`:         0x044f8dc0,
	`allreduce/MPI/nodes=5/topology="2,3"/hierarchical`:         0x3e54584d,
	`reduce_scatter/MPI/nodes=5/topology="2,3"/ring`:            0x67727e72,
	`reduce_scatter/MPI/nodes=5/topology="2,3"/hierarchical`:    0x84e06caa,
	`reduce/MPI/nodes=5/topology=""/ring`:                       0x12d0ce7b,
	`allreduce/C-Coll/nodes=4/topology=""/ring`:                 0x591e0879,
	`allreduce/C-Coll/nodes=4/topology=""/rd`:                   0xa7dcaf8b,
	`allreduce/C-Coll/nodes=4/topology=""/rabenseifner`:         0x95711ede,
	`allreduce/C-Coll/nodes=4/topology=""/hierarchical`:         0x591e0879,
	`reduce_scatter/C-Coll/nodes=4/topology=""/ring`:            0x5cdfbc94,
	`reduce_scatter/C-Coll/nodes=4/topology=""/hierarchical`:    0x9692def7,
	`allreduce/C-Coll/nodes=5/topology=""/ring`:                 0xd2a5d7ae,
	`allreduce/C-Coll/nodes=5/topology=""/rd`:                   0x1f1d27e1,
	`allreduce/C-Coll/nodes=5/topology=""/rabenseifner`:         0xae42849e,
	`allreduce/C-Coll/nodes=5/topology=""/hierarchical`:         0xd2a5d7ae,
	`reduce_scatter/C-Coll/nodes=5/topology=""/ring`:            0x321bddcd,
	`reduce_scatter/C-Coll/nodes=5/topology=""/hierarchical`:    0xf67ad477,
	`allreduce/C-Coll/nodes=4/topology="2x2"/ring`:              0x591e0879,
	`allreduce/C-Coll/nodes=4/topology="2x2"/rd`:                0xa7dcaf8b,
	`allreduce/C-Coll/nodes=4/topology="2x2"/rabenseifner`:      0x95711ede,
	`allreduce/C-Coll/nodes=4/topology="2x2"/hierarchical`:      0x995975d3,
	`reduce_scatter/C-Coll/nodes=4/topology="2x2"/ring`:         0x5cdfbc94,
	`reduce_scatter/C-Coll/nodes=4/topology="2x2"/hierarchical`: 0x331cc069,
	`allreduce/C-Coll/nodes=5/topology="2,3"/ring`:              0xd2a5d7ae,
	`allreduce/C-Coll/nodes=5/topology="2,3"/rd`:                0x1f1d27e1,
	`allreduce/C-Coll/nodes=5/topology="2,3"/rabenseifner`:      0xae42849e,
	`allreduce/C-Coll/nodes=5/topology="2,3"/hierarchical`:      0xc19364e2,
	`reduce_scatter/C-Coll/nodes=5/topology="2,3"/ring`:         0x321bddcd,
	`reduce_scatter/C-Coll/nodes=5/topology="2,3"/hierarchical`: 0x014d12e6,
	`reduce/C-Coll/nodes=5/topology=""/ring`:                    0xd9d2ea3f,
	`allreduce/hZCCL/nodes=4/topology=""/ring`:                  0x0df373ff,
	`allreduce/hZCCL/nodes=4/topology=""/rd`:                    0x0df373ff,
	`allreduce/hZCCL/nodes=4/topology=""/rabenseifner`:          0x0df373ff,
	`allreduce/hZCCL/nodes=4/topology=""/hierarchical`:          0x0df373ff,
	`reduce_scatter/hZCCL/nodes=4/topology=""/ring`:             0x16fb46a2,
	`reduce_scatter/hZCCL/nodes=4/topology=""/hierarchical`:     0x16fb46a2,
	`allreduce/hZCCL/nodes=5/topology=""/ring`:                  0x1f1d27e1,
	`allreduce/hZCCL/nodes=5/topology=""/rd`:                    0x1f1d27e1,
	`allreduce/hZCCL/nodes=5/topology=""/rabenseifner`:          0x1f1d27e1,
	`allreduce/hZCCL/nodes=5/topology=""/hierarchical`:          0x1f1d27e1,
	`reduce_scatter/hZCCL/nodes=5/topology=""/ring`:             0xc46bcf19,
	`reduce_scatter/hZCCL/nodes=5/topology=""/hierarchical`:     0xc46bcf19,
	`allreduce/hZCCL/nodes=4/topology="2x2"/ring`:               0x0df373ff,
	`allreduce/hZCCL/nodes=4/topology="2x2"/rd`:                 0x0df373ff,
	`allreduce/hZCCL/nodes=4/topology="2x2"/rabenseifner`:       0x0df373ff,
	`allreduce/hZCCL/nodes=4/topology="2x2"/hierarchical`:       0x0df373ff,
	`reduce_scatter/hZCCL/nodes=4/topology="2x2"/ring`:          0x16fb46a2,
	`reduce_scatter/hZCCL/nodes=4/topology="2x2"/hierarchical`:  0x16fb46a2,
	`allreduce/hZCCL/nodes=5/topology="2,3"/ring`:               0x1f1d27e1,
	`allreduce/hZCCL/nodes=5/topology="2,3"/rd`:                 0x1f1d27e1,
	`allreduce/hZCCL/nodes=5/topology="2,3"/rabenseifner`:       0x1f1d27e1,
	`allreduce/hZCCL/nodes=5/topology="2,3"/hierarchical`:       0x1f1d27e1,
	`reduce_scatter/hZCCL/nodes=5/topology="2,3"/ring`:          0xc46bcf19,
	`reduce_scatter/hZCCL/nodes=5/topology="2,3"/hierarchical`:  0xc46bcf19,
	`reduce/hZCCL/nodes=5/topology=""/ring`:                     0xb1dcb2db,
}
