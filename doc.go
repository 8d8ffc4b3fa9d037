// Package hzccl is a Go implementation of hZCCL — homomorphic
// compression-accelerated collective communication (Huang et al., SC 2024).
//
// The library has three layers, all reachable from this package:
//
//   - An error-bounded lossy compressor for float32 scientific data
//     (fZ-light): Compress, Compress2D, Compress3D, Decompress,
//     DecompressInto, Info.
//
//   - A homomorphic compressor (hZ-dynamic) that sums compressed data
//     directly, selecting the cheapest of four per-block pipelines at run
//     time: HomomorphicAdd, HomomorphicAddWithStats.
//
//   - Compression-accelerated collectives (ring Reduce_scatter and
//     Allreduce) on a simulated multi-node cluster with a calibrated
//     network model: RunCluster and the Rank collective methods, with
//     three interchangeable backends (BackendMPI, BackendCColl,
//     BackendHZCCL).
//
// # Quick start
//
//	data := make([]float32, 1<<20) // your field
//	comp, _ := hzccl.Compress(data, hzccl.Params{ErrorBound: 1e-3})
//	back, _ := hzccl.Decompress(comp) // |back[i]-data[i]| <= 1e-3
//
//	// reduce two compressed fields without decompressing
//	sum, _ := hzccl.HomomorphicAdd(comp, comp)
//
// The reproduction experiments for every table and figure of the paper are
// exposed by the cmd/hzccl-paper command and by the benchmarks in
// bench_test.go.
package hzccl
