package fzlight

import (
	"math"
	"sort"
	"testing"
	"time"

	"hzccl/internal/telemetry"
)

func telemetryBenchData(n int) []float32 {
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(math.Sin(float64(i)*0.002) + 0.1*math.Sin(float64(i)*0.11))
	}
	return data
}

// Compress must advance the byte counters and the per-chunk encode span
// histogram; Decompress mirrors them.
func TestCompressTelemetryCounters(t *testing.T) {
	data := telemetryBenchData(10000)
	before := telemetry.Capture()
	comp, err := Compress(data, Params{ErrorBound: 1e-3, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(comp); err != nil {
		t.Fatal(err)
	}
	d := telemetry.Capture().Delta(before)
	if got := d.Counters["fzlight.compress.calls"]; got != 1 {
		t.Fatalf("compress.calls = %d, want 1", got)
	}
	if got := d.Counters["fzlight.compress.raw_bytes"]; got != 4*10000 {
		t.Fatalf("compress.raw_bytes = %d, want %d", got, 4*10000)
	}
	if got := d.Counters["fzlight.compress.compressed_bytes"]; got != int64(len(comp)) {
		t.Fatalf("compress.compressed_bytes = %d, want %d", got, len(comp))
	}
	if got := d.Counters["fzlight.compress.outliers"]; got != 2 {
		t.Fatalf("compress.outliers = %d, want 2 (one per chunk)", got)
	}
	if hs := d.Histograms["fzlight.chunk.encode_ns"]; hs.Count != 2 {
		t.Fatalf("chunk.encode_ns count = %d, want 2", hs.Count)
	}
	if got := d.Counters["fzlight.decompress.raw_bytes"]; got != 4*10000 {
		t.Fatalf("decompress.raw_bytes = %d, want %d", got, 4*10000)
	}
	if hs := d.Histograms["fzlight.chunk.decode_ns"]; hs.Count != 2 {
		t.Fatalf("chunk.decode_ns count = %d, want 2", hs.Count)
	}
}

// BenchmarkCompressTelemetry compares Compress with telemetry recording
// (the default) against the disabled nop sink. The instrumentation is a
// fixed handful of atomic adds plus two clock reads per chunk, so the
// delta must vanish against the per-element encode work.
func BenchmarkCompressTelemetry(b *testing.B) {
	data := telemetryBenchData(1 << 20)
	p := Params{ErrorBound: 1e-3}
	run := func(b *testing.B) {
		b.SetBytes(int64(4 * len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Compress(data, p); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("on", run)
	b.Run("off", func(b *testing.B) {
		telemetry.SetEnabled(false)
		defer telemetry.SetEnabled(true)
		run(b)
	})
}

// TestCompressTelemetryOverhead bounds the telemetry overhead on the
// Compress hot path at <2%, the ISSUE's acceptance threshold. Telemetry is
// switched on and off from one call to the next and each side is judged by
// its median call: a load spike or a preemption then lands on both sides
// alike and moves neither median, where whole back-to-back benchmark runs
// of a ~1 ms op (what the SIMD kernels made of it) differed by several
// per cent under `go test ./...` load. It still retries before failing,
// because what noise remains is in the false-positive direction only:
// telemetry cannot get cheaper under load.
func TestCompressTelemetryOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	data := telemetryBenchData(1 << 20)
	p := Params{ErrorBound: 1e-3}
	defer telemetry.SetEnabled(true)
	var overhead float64
	for attempt := 0; attempt < 3; attempt++ {
		var ns [2][]float64 // [0] telemetry off, [1] on
		for i := 0; i < 400; i++ {
			telemetry.SetEnabled(i%2 == 1)
			t0 := time.Now()
			if _, err := Compress(data, p); err != nil {
				t.Fatal(err)
			}
			ns[i%2] = append(ns[i%2], float64(time.Since(t0)))
		}
		sort.Float64s(ns[0])
		sort.Float64s(ns[1])
		off, on := ns[0][len(ns[0])/2], ns[1][len(ns[1])/2]
		overhead = on/off - 1
		t.Logf("attempt %d: median call with telemetry on %.0fns, off %.0fns, overhead %.2f%%",
			attempt, on, off, 100*overhead)
		if overhead <= 0.02 {
			return
		}
	}
	t.Fatalf("telemetry overhead %.2f%% exceeds 2%% budget in all attempts", 100*overhead)
}
