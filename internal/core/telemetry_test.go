package core

import (
	"math"
	"sync/atomic"
	"testing"

	"hzccl/internal/cluster"
	"hzccl/internal/telemetry"
)

// An hZCCL allreduce must leave a full telemetry record: compressed bytes
// on the ring (and none raw), spans for every stage it runs, and an hzdyn
// pipeline histogram whose case counts sum to the reduced block pairs.
func TestAllreduceHZTelemetry(t *testing.T) {
	const nodes, n = 4, 4096
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) * 0.01))
	}
	c := New(Options{ErrorBound: 1e-3})

	before := telemetry.Capture()
	_, err := cluster.Run(cluster.Config{Ranks: nodes}, func(r *cluster.Rank) error {
		_, _, err := c.Allreduce(r, FlavorHZ, AlgoRing, data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	d := telemetry.Capture().Delta(before)

	if got := d.Counters["core.ring.compressed_bytes"]; got <= 0 {
		t.Fatalf("core.ring.compressed_bytes = %d, want > 0", got)
	}
	if got := d.Counters["core.ring.raw_bytes"]; got != 0 {
		t.Fatalf("core.ring.raw_bytes = %d, want 0 for hZCCL", got)
	}
	// Ring steps: reduce-scatter (N-1 per rank) + allgather (N-1 per rank).
	wantSteps := int64(2 * nodes * (nodes - 1))
	if got := d.Counters["core.ring.steps"]; got != wantSteps {
		t.Fatalf("core.ring.steps = %d, want %d", got, wantSteps)
	}
	for _, h := range []string{
		"core.stage.compress_ns",
		"core.stage.decompress_ns",
		"core.stage.reduce_homomorphic_ns",
		"core.stage.sendrecv_ns",
	} {
		hs := d.Histograms[h]
		if hs.Count <= 0 || hs.Sum <= 0 {
			t.Fatalf("%s = %+v, want nonzero count and sum", h, hs)
		}
	}
	// Pipeline case counts must sum to the total reduced block pairs.
	ph := d.Histograms["hzdyn.pipeline_case"]
	var caseSum int64
	for _, b := range ph.Buckets {
		caseSum += b.Count
	}
	blocks := d.Counters["hzdyn.blocks"]
	if blocks <= 0 || caseSum != blocks || ph.Count != blocks {
		t.Fatalf("pipeline cases sum %d (hist count %d), hzdyn.blocks %d — want all equal and > 0",
			caseSum, ph.Count, blocks)
	}
	// fzlight byte accounting feeds the achieved-ratio gauge.
	if d.Counters["fzlight.compress.raw_bytes"] <= 0 || d.Counters["fzlight.compress.compressed_bytes"] <= 0 {
		t.Fatal("fzlight compress byte counters did not advance")
	}
	if d.Gauges["fzlight.compress.achieved_ratio"] <= 0 {
		t.Fatalf("achieved_ratio gauge = %g, want > 0", d.Gauges["fzlight.compress.achieved_ratio"])
	}
}

// The plain MPI baseline must account its ring traffic as raw bytes.
func TestAllreducePlainCountsRawBytes(t *testing.T) {
	data := make([]float32, 1024)
	for i := range data {
		data[i] = float32(i % 7)
	}
	c := New(Options{ErrorBound: 1e-3})
	before := telemetry.Capture()
	_, err := cluster.Run(cluster.Config{Ranks: 3}, func(r *cluster.Rank) error {
		_, _, err := c.Allreduce(r, FlavorPlain, AlgoRing, data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	d := telemetry.Capture().Delta(before)
	if got := d.Counters["core.ring.raw_bytes"]; got <= 0 {
		t.Fatalf("core.ring.raw_bytes = %d, want > 0", got)
	}
	if got := d.Counters["core.ring.compressed_bytes"]; got != 0 {
		t.Fatalf("core.ring.compressed_bytes = %d, want 0 for plain MPI", got)
	}
}

// Every payload a schedule moves is counted: on a 5-rank world — one fold
// pair, so the fold and unfold hand-offs are in play — the wire-byte counters
// of each flavor under recursive doubling and Rabenseifner, and of the rooted
// reduce with its tree edges, add up to exactly the bytes handed to the
// transport.
func TestWireBytesCountEveryPayload(t *testing.T) {
	const nodes, n = 5, 4096
	c := New(Options{ErrorBound: 1e-3})
	ops := map[string]func(*cluster.Rank, Flavor, []float32) error{
		"rd": func(r *cluster.Rank, f Flavor, d []float32) error {
			_, _, err := c.Allreduce(r, f, AlgoRecursiveDoubling, d)
			return err
		},
		"rabenseifner": func(r *cluster.Rank, f Flavor, d []float32) error {
			_, _, err := c.Allreduce(r, f, AlgoRabenseifner, d)
			return err
		},
		"reduce": func(r *cluster.Rank, f Flavor, d []float32) error {
			_, _, err := c.Reduce(r, f, d, 1)
			return err
		},
	}
	for name, op := range ops {
		for _, f := range Flavors() {
			var handed atomic.Int64
			count := func(fc cluster.FaultContext) (cluster.FaultAction, float64) {
				handed.Add(int64(fc.Len))
				return cluster.FaultDeliver, 0
			}
			before := telemetry.Capture()
			_, err := cluster.Run(cluster.Config{Ranks: nodes, Fault: count}, func(r *cluster.Rank) error {
				return op(r, f, rankField(r.ID, n))
			})
			if err != nil {
				t.Fatal(err)
			}
			d := telemetry.Capture().Delta(before)
			counted := d.Counters["core.ring.compressed_bytes"] + d.Counters["core.ring.raw_bytes"]
			if counted != handed.Load() || counted == 0 {
				t.Errorf("%s %s: counted %d wire bytes, transport was handed %d", flavorName(f), name, counted, handed.Load())
			}
			if f == FlavorPlain && d.Counters["core.ring.compressed_bytes"] != 0 {
				t.Errorf("plain %s counted %d compressed bytes", name, d.Counters["core.ring.compressed_bytes"])
			}
		}
	}
}
