package hzccl_test

import (
	"fmt"
	"math"

	"hzccl"
)

func ExampleCompress() {
	data := make([]float32, 100000)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) * 0.001))
	}
	comp, err := hzccl.Compress(data, hzccl.Params{ErrorBound: 1e-3})
	if err != nil {
		panic(err)
	}
	back, err := hzccl.Decompress(comp)
	if err != nil {
		panic(err)
	}
	worst := 0.0
	for i := range data {
		if d := math.Abs(float64(data[i]) - float64(back[i])); d > worst {
			worst = d
		}
	}
	fmt.Printf("bound respected: %v\n", worst <= 1e-3+1e-9)
	// Output:
	// bound respected: true
}

func ExampleHomomorphicAdd() {
	a := []float32{1, 2, 3, 4}
	b := []float32{10, 20, 30, 40}
	p := hzccl.Params{ErrorBound: 0.01}
	ca, _ := hzccl.Compress(a, p)
	cb, _ := hzccl.Compress(b, p)

	// Sum entirely in compressed space.
	sum, err := hzccl.HomomorphicAdd(ca, cb)
	if err != nil {
		panic(err)
	}
	vals, _ := hzccl.Decompress(sum)
	fmt.Printf("%.1f %.1f %.1f %.1f\n", vals[0], vals[1], vals[2], vals[3])
	// Output:
	// 11.0 22.0 33.0 44.0
}

func ExampleRunCluster() {
	// Four simulated nodes sum their vectors with the homomorphic
	// Allreduce.
	const ranks = 4
	data := make([][]float32, ranks)
	for r := range data {
		data[r] = []float32{float32(r), float32(r * 10)}
	}
	var result []float32
	_, err := hzccl.RunCluster(hzccl.ClusterConfig{Ranks: ranks}, func(r *hzccl.Rank) error {
		out, err := r.Allreduce(data[r.ID()], hzccl.BackendHZCCL,
			hzccl.CollectiveOptions{ErrorBound: 1e-3})
		if r.ID() == 0 {
			result = out
		}
		return err
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%.0f %.0f\n", result[0], result[1])
	// Output:
	// 6 60
}

func ExampleRank_ReduceScatter() {
	// Four simulated nodes sum their vectors with the homomorphic
	// Reduce_scatter; each keeps one block of the sum, the one OwnedBlock
	// names.
	const ranks, n = 4, 8
	shards := make([][]float32, ranks)
	starts := make([]int, ranks)
	_, err := hzccl.RunCluster(hzccl.ClusterConfig{Ranks: ranks}, func(r *hzccl.Rank) error {
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(10*r.ID() + i)
		}
		out, err := r.ReduceScatter(data, hzccl.BackendHZCCL,
			hzccl.CollectiveOptions{ErrorBound: 1e-3})
		shards[r.ID()] = out
		_, starts[r.ID()], _ = r.OwnedBlock(n)
		return err
	})
	if err != nil {
		panic(err)
	}
	for id, shard := range shards {
		fmt.Printf("rank %d: sum[%d:%d] = %.0f\n", id, starts[id], starts[id]+len(shard), shard)
	}
	// Output:
	// rank 0: sum[2:4] = [68 72]
	// rank 1: sum[4:6] = [76 80]
	// rank 2: sum[6:8] = [84 88]
	// rank 3: sum[0:2] = [60 64]
}

func ExampleInfo() {
	data := make([]float32, 3200) // constant: maximal compression
	comp, _ := hzccl.Compress(data, hzccl.Params{ErrorBound: 1e-3})
	info, _ := hzccl.Info(comp)
	fmt.Printf("elements=%d constant=%.0f%%\n", info.DataLen, 100*info.ConstantBlockFraction)
	// Output:
	// elements=3200 constant=100%
}
