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

// TestMPIDigestGoldens pins the plain flavor's results to digests recorded
// from the commit *before* its data path was rewritten to reduce straight
// from wire bytes: `hzccl-collective -transport=inproc -backend mpi
// -algorithm A -nodes N [-topology T]` (SimSet1 field 0, 256 KiB per rank,
// every rank the same field; digest = crc32c over the little-endian result
// bits, identical on all ranks). A changed digest means the rewrite — or
// anything after it — changed the order or grouping of float32 additions.
func TestMPIDigestGoldens(t *testing.T) {
	base, err := datasets.Field("SimSet1", 0, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	goldens := []struct {
		nodes    int
		algo     hzccl.Algorithm
		topology string
		digest   uint32
	}{
		{4, hzccl.AlgoRing, "", 0xd7e393cb},
		{4, hzccl.AlgoRecursiveDoubling, "", 0xd7e393cb},
		{4, hzccl.AlgoRabenseifner, "", 0xd7e393cb},
		{4, hzccl.AlgoHierarchical, "", 0xd7e393cb},
		{4, hzccl.AlgoHierarchical, "2x2", 0xd7e393cb},
		{5, hzccl.AlgoRing, "", 0xb58b4e4a},
		{5, hzccl.AlgoRecursiveDoubling, "", 0x21628259},
		{5, hzccl.AlgoRabenseifner, "", 0x21628259},
		{5, hzccl.AlgoHierarchical, "", 0xb58b4e4a},
		{5, hzccl.AlgoHierarchical, "2,3", 0x21628259},
		{5, hzccl.AlgoHierarchical, "3,2", 0x21628259},
	}
	table := crc32.MakeTable(crc32.Castagnoli)
	for _, g := range goldens {
		name := fmt.Sprintf("nodes=%d/%v/topology=%q", g.nodes, g.algo, g.topology)
		cfg := hzccl.ClusterConfig{Ranks: g.nodes, Latency: 2 * time.Microsecond, BandwidthBytes: 0.4e9, RecvTimeout: 2 * time.Second}
		if g.topology != "" {
			if cfg.Topology, err = hzccl.ParseTopology(g.topology); err != nil {
				t.Fatal(err)
			}
		}
		digests := make([]uint32, g.nodes)
		_, err := hzccl.RunCluster(cfg, func(r *hzccl.Rank) error {
			out, err := r.Allreduce(base, hzccl.BackendMPI, hzccl.CollectiveOptions{Algorithm: g.algo})
			if err != nil {
				return err
			}
			digests[r.ID()] = crc32.Checksum(floatbytes.Bytes(out), table)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for rk, d := range digests {
			if d != g.digest {
				t.Errorf("%s rank %d: digest %08x, golden %08x", name, rk, d, g.digest)
			}
		}
	}
}
