package hzccl_test

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"hzccl"
	"hzccl/internal/telemetry"
)

func sineField(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	v := 0.0
	for i := range out {
		v += rng.NormFloat64() * 0.01
		out[i] = float32(math.Sin(float64(i)*0.01) + v)
	}
	return out
}

func TestPublicCompressRoundTrip(t *testing.T) {
	data := sineField(10000, 1)
	comp, err := hzccl.Compress(data, hzccl.Params{ErrorBound: 1e-3, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := hzccl.Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if d := math.Abs(float64(data[i]) - float64(got[i])); d > 1e-3+1e-6 {
			t.Fatalf("error %g at %d", d, i)
		}
	}
	dst := make([]float32, len(data))
	if err := hzccl.DecompressInto(comp, dst); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != dst[i] {
			t.Fatal("DecompressInto differs from Decompress")
		}
	}
}

func TestPublicInfo(t *testing.T) {
	data := sineField(10000, 2)
	comp, err := hzccl.Compress(data, hzccl.Params{ErrorBound: 1e-2, Threads: 3, BlockSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	info, err := hzccl.Info(comp)
	if err != nil {
		t.Fatal(err)
	}
	if info.ErrorBound != 1e-2 || info.BlockSize != 32 || info.Threads != 3 || info.DataLen != 10000 {
		t.Fatalf("info mismatch: %+v", info)
	}
	if info.Ratio <= 1 {
		t.Fatalf("suspicious ratio %g", info.Ratio)
	}
	if info.CompressedBytes != len(comp) {
		t.Fatal("compressed size mismatch")
	}
	if _, err := hzccl.Info([]byte("junk")); err == nil {
		t.Fatal("junk accepted")
	}
}

func TestPublicHomomorphicAdd(t *testing.T) {
	a := sineField(5000, 3)
	b := sineField(5000, 4)
	p := hzccl.Params{ErrorBound: 1e-3}
	ca, _ := hzccl.Compress(a, p)
	cb, _ := hzccl.Compress(b, p)
	sum, st, err := hzccl.HomomorphicAddWithStats(ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	if st.Blocks == 0 || st.BothConstant+st.LeftConstant+st.RightConstant+st.BothEncoded != st.Blocks {
		t.Fatalf("inconsistent stats %+v", st)
	}
	got, err := hzccl.Decompress(sum)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		want := float64(a[i]) + float64(b[i])
		if d := math.Abs(float64(got[i]) - want); d > 2e-3+1e-6 {
			t.Fatalf("sum error %g at %d", d, i)
		}
	}
	sum2, err := hzccl.HomomorphicAdd(ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	if string(sum) != string(sum2) {
		t.Fatal("HomomorphicAdd and HomomorphicAddWithStats disagree")
	}
}

func TestPublicClusterAllreduce(t *testing.T) {
	const nRanks, n = 4, 4096
	exact := make([]float64, n)
	fields := make([][]float32, nRanks)
	for r := range fields {
		fields[r] = sineField(n, 100+int64(r))
		for i, v := range fields[r] {
			exact[i] += float64(v)
		}
	}
	for _, backend := range []hzccl.Backend{hzccl.BackendMPI, hzccl.BackendCColl, hzccl.BackendHZCCL} {
		outs := make([][]float32, nRanks)
		res, err := hzccl.RunCluster(hzccl.ClusterConfig{Ranks: nRanks}, func(r *hzccl.Rank) error {
			out, err := r.Allreduce(fields[r.ID()], backend, hzccl.CollectiveOptions{ErrorBound: 1e-3})
			outs[r.ID()] = out
			return err
		})
		if err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		if res.Seconds <= 0 {
			t.Fatalf("%v: no time elapsed", backend)
		}
		for rk, out := range outs {
			for i := range out {
				if d := math.Abs(float64(out[i]) - exact[i]); d > 0.02 {
					t.Fatalf("%v rank %d: error %g at %d", backend, rk, d, i)
				}
			}
		}
	}
}

// A collective's codec calls run on one core (core's work runs them inside
// fanout.Inline): at any GOMAXPROCS no block a collective compresses is
// split into segments and no chunk runs on a helper, single- or
// multi-thread, though the same block compressed on its own splits. The
// other ranks of a run already occupy the cores.
func TestPublicClusterCodecCallsStayOnOneCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const nRanks, n = 2, 1 << 20 // ring blocks of 512 Ki elements
	fields := [][]float32{sineField(n, 1), sineField(n, 2)}
	// offCore runs f and reports the extra segments its compressions split
	// into and the tasks the fanout runner's helpers took.
	offCore := func(f func() error) (split, helped int64) {
		before := telemetry.Capture()
		if err := f(); err != nil {
			t.Fatal(err)
		}
		d := telemetry.Capture().Delta(before).Counters
		return d["fzlight.compress.segments"] - d["fzlight.compress.outliers"], d["fanout.helper_tasks"]
	}
	if split, _ := offCore(func() error {
		_, err := hzccl.Compress(fields[0][:n/nRanks], hzccl.Params{ErrorBound: 1e-3})
		return err
	}); split == 0 {
		t.Fatal("a ring block does not split at GOMAXPROCS 4; the test proves nothing")
	}
	for _, mt := range []bool{false, true} {
		if split, helped := offCore(func() error {
			_, err := hzccl.RunCluster(hzccl.ClusterConfig{Ranks: nRanks}, func(r *hzccl.Rank) error {
				_, err := r.Allreduce(fields[r.ID()], hzccl.BackendHZCCL, hzccl.CollectiveOptions{ErrorBound: 1e-3, MultiThread: mt})
				return err
			})
			return err
		}); split != 0 || helped != 0 {
			t.Errorf("MultiThread %v: split %d extra segments and gave %d tasks to helpers, want every codec call on one core", mt, split, helped)
		}
	}
}

// With default options a run's virtual time is charged at the pinned
// default rates, never at the wall time of its calls: two runs of the same
// collective report identical clocks and breakdowns, in multi-thread mode
// too.
func TestDefaultVirtualTimeIsReproducible(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const nRanks, n = 4, 1 << 18
	fields := make([][]float32, nRanks)
	for r := range fields {
		fields[r] = sineField(n, int64(r+1))
	}
	for _, b := range []hzccl.Backend{hzccl.BackendMPI, hzccl.BackendCColl, hzccl.BackendHZCCL} {
		for _, mt := range []bool{false, true} {
			opt := hzccl.CollectiveOptions{ErrorBound: 1e-3, MultiThread: mt}
			var runs [2]*hzccl.RunResult
			for i := range runs {
				res, err := hzccl.RunCluster(hzccl.ClusterConfig{Ranks: nRanks}, func(r *hzccl.Rank) error {
					_, err := r.Allreduce(fields[r.ID()], b, opt)
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = res
			}
			if runs[0].Seconds != runs[1].Seconds || !reflect.DeepEqual(runs[0].RankSeconds, runs[1].RankSeconds) ||
				!reflect.DeepEqual(runs[0].Breakdown, runs[1].Breakdown) {
				t.Errorf("%v MultiThread %v: runs differ: %g s %v vs %g s %v",
					b, mt, runs[0].Seconds, runs[0].Breakdown, runs[1].Seconds, runs[1].Breakdown)
			}
		}
	}
}

func TestPublicClusterReduceScatter(t *testing.T) {
	const nRanks, n = 4, 1000
	fields := make([][]float32, nRanks)
	exact := make([]float64, n)
	for r := range fields {
		fields[r] = sineField(n, 200+int64(r))
		for i, v := range fields[r] {
			exact[i] += float64(v)
		}
	}
	outs := make([][]float32, nRanks)
	starts := make([]int, nRanks)
	_, err := hzccl.RunCluster(hzccl.ClusterConfig{Ranks: nRanks}, func(r *hzccl.Rank) error {
		out, err := r.ReduceScatter(fields[r.ID()], hzccl.BackendHZCCL, hzccl.CollectiveOptions{ErrorBound: 1e-3})
		if err != nil {
			return err
		}
		_, s, e := r.OwnedBlock(n)
		if len(out) != e-s {
			t.Errorf("rank %d: block length %d want %d", r.ID(), len(out), e-s)
		}
		outs[r.ID()] = out
		starts[r.ID()] = s
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rk, out := range outs {
		for i := range out {
			if d := math.Abs(float64(out[i]) - exact[starts[rk]+i]); d > 0.02 {
				t.Fatalf("rank %d: error %g", rk, d)
			}
		}
	}
}

func TestPublicSendRecvBarrier(t *testing.T) {
	_, err := hzccl.RunCluster(hzccl.ClusterConfig{Ranks: 2}, func(r *hzccl.Rank) error {
		if r.Size() != 2 {
			t.Errorf("size %d", r.Size())
		}
		r.Barrier()
		if r.ID() == 0 {
			return r.Send(1, []byte{42})
		}
		got, err := r.Recv(0)
		if err != nil {
			return err
		}
		if got[0] != 42 {
			t.Errorf("got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPublicErrors(t *testing.T) {
	if _, err := hzccl.Compress([]float32{1}, hzccl.Params{}); err == nil {
		t.Error("zero error bound accepted")
	}
	if _, err := hzccl.Decompress(nil); err == nil {
		t.Error("nil container accepted")
	}
	a, _ := hzccl.Compress([]float32{1, 2, 3}, hzccl.Params{ErrorBound: 1e-3})
	b, _ := hzccl.Compress([]float32{1, 2, 3, 4}, hzccl.Params{ErrorBound: 1e-3})
	if _, err := hzccl.HomomorphicAdd(a, b); err == nil {
		t.Error("geometry mismatch accepted")
	}
	if _, err := hzccl.RunCluster(hzccl.ClusterConfig{Ranks: 0}, func(*hzccl.Rank) error { return nil }); err == nil {
		t.Error("zero ranks accepted")
	}
	wantErr := errors.New("rank failure")
	if _, err := hzccl.RunCluster(hzccl.ClusterConfig{Ranks: 2}, func(r *hzccl.Rank) error {
		if r.ID() == 1 {
			return wantErr
		}
		return nil
	}); !errors.Is(err, wantErr) {
		t.Errorf("rank error not propagated: %v", err)
	}
}

func TestBackendString(t *testing.T) {
	if hzccl.BackendMPI.String() != "MPI" || hzccl.BackendCColl.String() != "C-Coll" ||
		hzccl.BackendHZCCL.String() != "hZCCL" || hzccl.Backend(99).String() != "unknown" {
		t.Fatal("backend strings wrong")
	}
}

func TestPublicCompress2D(t *testing.T) {
	h, w := 48, 32
	data := make([]float32, h*w)
	for i := range data {
		data[i] = float32(math.Sin(float64(i%w)*0.2) + float64(i/w)*0.01)
	}
	comp, err := hzccl.Compress2D(data, h, w, hzccl.Params{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := hzccl.Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if d := math.Abs(float64(data[i]) - float64(got[i])); d > 1e-3+1e-6 {
			t.Fatalf("2D round trip error %g", d)
		}
	}
	sum, err := hzccl.HomomorphicAdd(comp, comp)
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := hzccl.Decompress(sum)
	for i := range ds {
		want := 2 * float64(got[i])
		if d := math.Abs(float64(ds[i]) - want); d > 1e-6 {
			t.Fatalf("2D homomorphic add error %g", d)
		}
	}
}

func TestPublicCompress3D(t *testing.T) {
	d, h, w := 8, 16, 16
	data := make([]float32, d*h*w)
	for z := 0; z < d; z++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				data[(z*h+y)*w+x] = float32(math.Sin(float64(x)*0.2)*math.Cos(float64(y)*0.3) + float64(z)*0.1)
			}
		}
	}
	comp, err := hzccl.Compress3D(data, d, h, w, hzccl.Params{ErrorBound: 1e-3, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := hzccl.Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if dv := math.Abs(float64(data[i]) - float64(got[i])); dv > 1e-3+1e-6 {
			t.Fatalf("3D round trip error %g", dv)
		}
	}
	sum, err := hzccl.HomomorphicAdd(comp, comp)
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := hzccl.Decompress(sum)
	for i := range ds {
		if dv := math.Abs(float64(ds[i]) - 2*float64(got[i])); dv > 1e-6 {
			t.Fatalf("3D homomorphic add error %g", dv)
		}
	}
	info, err := hzccl.Info(comp)
	if err != nil {
		t.Fatal(err)
	}
	if info.DataLen != d*h*w {
		t.Fatalf("info %+v", info)
	}
}

func TestChecksumFrame(t *testing.T) {
	data := sineField(1000, 99)
	comp, err := hzccl.Compress(data, hzccl.Params{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	frame := hzccl.AddChecksum(comp)
	inner, err := hzccl.VerifyChecksum(frame)
	if err != nil {
		t.Fatal(err)
	}
	if string(inner) != string(comp) {
		t.Fatal("frame round trip altered payload")
	}
	if _, err := hzccl.Decompress(inner); err != nil {
		t.Fatal(err)
	}
	// every single-byte corruption must be detected
	for pos := 0; pos < len(frame); pos += 7 {
		bad := append([]byte(nil), frame...)
		bad[pos] ^= 0x5A
		if _, err := hzccl.VerifyChecksum(bad); err == nil {
			t.Fatalf("corruption at byte %d undetected", pos)
		}
	}
	if _, err := hzccl.VerifyChecksum(nil); err == nil {
		t.Fatal("nil frame accepted")
	}
	if _, err := hzccl.VerifyChecksum([]byte("FZLCxxx")); err == nil {
		t.Fatal("short frame accepted")
	}
}

func TestPublicBreakdownSharesOrder(t *testing.T) {
	res := &hzccl.RunResult{Breakdown: map[string]float64{
		"MPI": 3, "CPR": 1, "OTHER": 0.5, "DPR": 0.5,
	}}
	shares := res.BreakdownShares()
	wantOrder := []string{"CPR", "DPR", "CPT", "HPR", "MPI", "OTHER"}
	if len(shares) != len(wantOrder) {
		t.Fatalf("got %d shares, want %d", len(shares), len(wantOrder))
	}
	totalFrac := 0.0
	for i, s := range shares {
		if s.Category != wantOrder[i] {
			t.Fatalf("share %d is %s, want %s", i, s.Category, wantOrder[i])
		}
		totalFrac += s.Fraction
	}
	if math.Abs(totalFrac-1) > 1e-12 {
		t.Fatalf("fractions sum to %g, want 1", totalFrac)
	}
	if shares[4].Seconds != 3 || shares[4].Fraction != 0.6 {
		t.Fatalf("MPI share = %+v", shares[4])
	}
}
