package hzccl_test

import (
	"math"
	"testing"

	"hzccl"
)

func TestPublicBroadcast(t *testing.T) {
	const nRanks, n = 5, 2000
	src := sineField(n, 60)
	for _, backend := range []hzccl.Backend{hzccl.BackendMPI, hzccl.BackendHZCCL} {
		outs := make([][]float32, nRanks)
		_, err := hzccl.RunCluster(hzccl.ClusterConfig{Ranks: nRanks}, func(r *hzccl.Rank) error {
			buf := src
			if r.ID() != 2 {
				buf = make([]float32, n) // non-root buffer, contents ignored
			}
			out, err := r.Broadcast(buf, 2, backend, hzccl.CollectiveOptions{ErrorBound: 1e-3})
			outs[r.ID()] = out
			return err
		})
		if err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		tol := 0.0
		if backend != hzccl.BackendMPI {
			tol = 1e-3 + 1e-6
		}
		for rk, out := range outs {
			for i := range out {
				if d := math.Abs(float64(out[i]) - float64(src[i])); d > tol {
					t.Fatalf("%v rank %d: err %g", backend, rk, d)
				}
			}
		}
	}
}

func TestPublicReduce(t *testing.T) {
	const nRanks, n = 6, 1500
	fields := make([][]float32, nRanks)
	exact := make([]float64, n)
	for r := range fields {
		fields[r] = sineField(n, 70+int64(r))
		for i, v := range fields[r] {
			exact[i] += float64(v)
		}
	}
	for _, backend := range []hzccl.Backend{hzccl.BackendMPI, hzccl.BackendCColl, hzccl.BackendHZCCL} {
		var got []float32
		_, err := hzccl.RunCluster(hzccl.ClusterConfig{Ranks: nRanks}, func(r *hzccl.Rank) error {
			out, err := r.Reduce(fields[r.ID()], 0, backend, hzccl.CollectiveOptions{ErrorBound: 1e-3})
			if r.ID() == 0 {
				got = out
			}
			return err
		})
		if err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		if len(got) != n {
			t.Fatalf("%v: root got %d elems", backend, len(got))
		}
		for i := range got {
			if d := math.Abs(float64(got[i]) - exact[i]); d > 0.05 {
				t.Fatalf("%v: err %g at %d", backend, d, i)
			}
		}
	}
}

func TestPublicGatherAllgatherAlltoall(t *testing.T) {
	const nRanks, n = 4, 800
	fields := make([][]float32, nRanks)
	for r := range fields {
		fields[r] = sineField(n, 80+int64(r))
	}
	opt := hzccl.CollectiveOptions{ErrorBound: 1e-3}

	var rootGather [][]float32
	allgathers := make([][][]float32, nRanks)
	alltoalls := make([][][]float32, nRanks)
	_, err := hzccl.RunCluster(hzccl.ClusterConfig{Ranks: nRanks}, func(r *hzccl.Rank) error {
		g, err := r.Gather(fields[r.ID()], 1, hzccl.BackendHZCCL, opt)
		if err != nil {
			return err
		}
		if r.ID() == 1 {
			rootGather = g
		}
		ag, err := r.Allgather(fields[r.ID()], hzccl.BackendCColl, opt)
		if err != nil {
			return err
		}
		allgathers[r.ID()] = ag
		at, err := r.Alltoall(fields[r.ID()], hzccl.BackendMPI, opt)
		if err != nil {
			return err
		}
		alltoalls[r.ID()] = at
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for origin, vals := range rootGather {
		for i := range vals {
			if d := math.Abs(float64(vals[i]) - float64(fields[origin][i])); d > 1e-3+1e-6 {
				t.Fatalf("gather origin %d err %g", origin, d)
			}
		}
	}
	for rk, all := range allgathers {
		for origin, vals := range all {
			tol := 1e-3 + 1e-6
			if origin == rk {
				tol = 0
			}
			for i := range vals {
				if d := math.Abs(float64(vals[i]) - float64(fields[origin][i])); d > tol {
					t.Fatalf("allgather rank %d origin %d err %g", rk, origin, d)
				}
			}
		}
	}
	for rk, blocks := range alltoalls {
		start := rk * (n / nRanks) // n divides evenly in this test
		for src, vals := range blocks {
			for i := range vals {
				if vals[i] != fields[src][start+i] {
					t.Fatalf("alltoall rank %d src %d differs", rk, src)
				}
			}
		}
	}
}

func TestPublicRecursiveAllreduce(t *testing.T) {
	const nRanks, n = 6, 2048
	fields := make([][]float32, nRanks)
	exact := make([]float64, n)
	for r := range fields {
		fields[r] = sineField(n, 90+int64(r))
		for i, v := range fields[r] {
			exact[i] += float64(v)
		}
	}
	for _, backend := range []hzccl.Backend{hzccl.BackendMPI, hzccl.BackendHZCCL} {
		outs := make([][]float32, nRanks)
		_, err := hzccl.RunCluster(hzccl.ClusterConfig{Ranks: nRanks}, func(r *hzccl.Rank) error {
			out, err := r.Allreduce(fields[r.ID()], backend,
				hzccl.CollectiveOptions{ErrorBound: 1e-3, Algorithm: hzccl.AlgoRabenseifner})
			outs[r.ID()] = out
			return err
		})
		if err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		for rk, out := range outs {
			if len(out) != n {
				t.Fatalf("%v rank %d: %d elems", backend, rk, len(out))
			}
			for i := range out {
				if d := math.Abs(float64(out[i]) - exact[i]); d > 0.05 {
					t.Fatalf("%v rank %d: err %g", backend, rk, d)
				}
			}
		}
	}
}
