package main

// This file is the benchmark's contract in code: the workloads, the
// end-to-end metrics with their units, directions and regression bounds,
// and the per-layer metric names. BENCHMARK.json at the repository root
// states the same lists; benchmark_test.go keeps the two equal.

const (
	worldSize = 4 // smallest world with several ring steps, two halving rounds and a 2x2 topology
	relBound  = 1e-4
	fabric    = "loopback"
)

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the base median it may worsen by
}

type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"allreduce-hz-large", "hZCCL ring Allreduce, 8 MiB/rank CESM-ATM: fzlight CPR + hzdyn pipeline-4 HPR + one DPR do the work, wire carries compressed bytes"},
	{"allreduce-ccoll-large", "same inputs on the C-Coll ring: decompress+recompress every step, hzdyn idle, so an hZ-only or compress-only trick shows as no gain here"},
	{"allreduce-mpi-large", "same inputs on the plain ring: codecs idle; TCP framing, crc32c, copy-on-send, bufpool and float add do everything"},
	{"allreduce-hz-small", "hZCCL auto schedule on a 2x2 topology, 16 KiB/rank: latency-bound, per-message and per-collective fixed cost dominate"},
	{"serve-mixed", "2 closed-loop clients drain a seed-shuffled job mix through a 4-rank daemon mesh: the only path through queue, handshake and every flavor x schedule"},
	{"codec-pipeline", "no communication: compress two fields, homomorphic add, decompress, 5 datasets at 4 MiB; bypass workload for every transport or daemon change"},
}

// endToEnd lists what a user of the system sees. fail_frac, err_over_tol
// and alloc_mb_per_op are reported in the per-layer list instead: the
// first two are 0 or seed-dependent constants, the third is ~0 on the
// codec pipeline, and a bounded metric may never be 0 (README, "Demoted").
var endToEnd = []metricDef{
	{"goodput_mbps", "MB/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

var datasetSlugs = []struct{ Slug, Name string }{
	{"simset1", "SimSet1"}, {"simset2", "SimSet2"}, {"nyx", "NYX"},
	{"cesm-atm", "CESM-ATM"}, {"hurricane", "Hurricane"},
}

var flavorSlugs = []string{"mpi", "ccoll", "hz"}
var algoSlugs = []string{"ring", "rd", "rabenseifner", "hierarchical"}

// perLayer builds the per-layer list; <ds>, <flavor> and <algo> patterns
// are expanded here so the names exist in exactly one place.
func perLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	perDS := func(unit, better, prefix string) {
		for _, d := range datasetSlugs {
			add(unit, better, prefix+"."+d.Slug)
		}
	}
	add("MB/s", "higher", "bitio.pack_mbps", "bitio.unpack_mbps", "bitio.addnarrow_mbps", "bitio.addword_mbps")
	perDS("MB/s", "higher", "fzlight.compress_mbps")
	perDS("MB/s", "higher", "fzlight.decompress_mbps")
	perDS("ratio", "higher", "fzlight.ratio")
	add("count", "lower", "fzlight.compress_allocs_per_op", "fzlight.decompress_allocs_per_op")
	perDS("MB/s", "higher", "hzdyn.add_mbps")
	perDS("ratio", "lower", "hzdyn.frac_p4")
	add("count", "lower", "hzdyn.overflow_fallbacks", "hzdyn.add_allocs_per_op")
	add("MB/s", "higher", "ompszp.compress_mbps", "ompszp.decompress_mbps", "szx.compress_mbps", "szx.decompress_mbps")
	for _, f := range flavorSlugs {
		for _, a := range algoSlugs {
			add("ms", "lower", "core.allreduce_ms."+f+"."+a)
		}
	}
	add("ms", "lower", "core.cpr_ms_per_op", "core.dpr_ms_per_op", "core.hpr_ms_per_op",
		"core.cpt_ms_per_op", "core.other_ms_per_op", "core.sendrecv_ms_per_op")
	add("ratio", "higher", "core.attributed_frac")
	add("bytes", "lower", "core.wire_bytes_per_op")
	add("ratio", "higher", "core.wire_ratio")
	add("us", "lower", "cluster.tcp.pingpong_us", "cluster.tcp.ringstep_us", "cluster.tcp.barrier_us", "cluster.tcp.session_open_us")
	add("MB/s", "higher", "cluster.tcp.stream_mbps", "cluster.tcp.reliable_stream_mbps")
	add("ms", "lower", "cluster.tcp.mesh_setup_ms")
	add("count", "lower", "cluster.tcp.allocs_per_msg")
	add("ratio", "lower", "cluster.tcp.wire_overhead_frac")
	add("us", "lower", "cluster.chan.pingpong_us")
	add("MB/s", "higher", "cluster.chan.stream_mbps")
	add("count", "lower", "cluster.retransmits", "cluster.nacks")
	add("ratio", "higher", "bufpool.hit_frac")
	add("ns", "lower", "bufpool.getput_ns")
	add("ratio", "lower", "costmodel.residual_frac", "costmodel.auto_regret.small", "costmodel.auto_regret.large")
	add("ms", "lower", "costmodel.measure_ms")
	add("us", "lower", "root.runcluster_us", "root.degrade_agree_us", "root.dispatch_us")
	add("ms", "lower", "serve.submit_p50_ms.noop", "serve.overhead_ms", "serve.submit_p99_ms")
	add("1/s", "higher", "serve.jobs_per_s.c1", "serve.jobs_per_s.c2")
	add("count", "lower", "serve.dials_per_job", "serve.rejected")
	add("ratio", "lower", "telemetry.overhead_frac", "trace.overhead_frac")
	add("ms", "lower", "op_p99_ms")
	add("ratio", "lower", "fail_frac", "err_over_tol")
	add("MB", "lower", "alloc_mb_per_op")
	return out
}
