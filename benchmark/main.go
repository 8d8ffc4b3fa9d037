// Command benchmark is the repository's end-to-end benchmark: wall-clock
// collectives over loopback TCP, jobs through the serve daemon and a
// codec pipeline, each with a per-layer ledger from a separate traced
// pass. README.md in this directory defines every workload and metric.
//
//	benchmark -workload W -seed S -seconds N -trace 0|1   one workload, one JSON result line
//	benchmark -seed S [-runs R] [-trace 1]                every workload, each run in a child process
//	benchmark -compare A.json B.json                      regression verdicts between two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"hzccl/internal/telemetry"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a single-workload run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runInfo is what a run knows beyond its metrics; it travels on an
// "info " line and into the result file as provenance.
type runInfo struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Traced     bool     `json:"traced"`
	Samples    int      `json:"samples"`
	Quiet      int      `json:"quiet_samples,omitempty"` // ops in the quiet quarter the end-to-end numbers come from
	Digest     string   `json:"digest"`
	ErrOverTol float64  `json:"err_over_tol"`
	AutoPick   string   `json:"auto_pick,omitempty"`
	Invalid    []string `json:"invalid,omitempty"`
	Unmeasured []string `json:"unmeasured,omitempty"` // traced: per-layer metrics this workload does not exercise; they read 0
	TraceFile  string   `json:"trace_file,omitempty"`
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	ops      int  // tests: that many timed ops instead of a duration
	trace    bool // the traced pass: per-layer metrics only
	quick    bool // tests: one set-up round, minimal replay
	outDir   string
}

// setUp builds the workload several times and reports the median set-up
// time, so one slow mesh formation does not decide setup_s; the last
// instance is kept.
func setUp(cfg runConfig, tr *tracer) (instance, float64, error) {
	rounds := 5
	if cfg.quick {
		rounds = 1
	}
	var inst instance
	var seconds []float64
	for i := 0; i < rounds; i++ {
		if inst != nil {
			inst.close()
		}
		sp := tr.begin("setup", 0, i, 0)
		t0 := time.Now()
		var err error
		inst, err = setups[cfg.workload](cfg.seed, cfg.quick)
		seconds = append(seconds, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
	}
	return inst, median(seconds), nil
}

// runWorkload sets a workload up, times it, checks its outputs and the
// process's hygiene, and — in the traced pass — adds the in-situ ledger
// and the replay of the layers the workload exercises.
func runWorkload(cfg runConfig) (*resultLine, *runInfo, error) {
	if setups[cfg.workload] == nil {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	base := readProcState()
	began := telemetry.Capture()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	inst, setupS, err := setUp(cfg, tr)
	if err != nil {
		return nil, nil, err
	}

	stop := stopRule{ops: cfg.ops, seconds: cfg.seconds}
	if cfg.trace {
		stop.seconds /= 2 // an untraced and a traced half
	}
	runtime.GC() // set-up garbage is not the timed pass's to collect
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s := inst.run(stop, nil)
	runtime.ReadMemStats(&m1)
	rss := peakRSSMB()
	inst.check(s)
	if s.attempted == 0 {
		inst.close()
		return nil, nil, fmt.Errorf("%s: no op was attempted", cfg.workload)
	}
	res := &resultLine{Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metricValue{}}
	info := &runInfo{Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.trace, Samples: len(s.opMS),
		Digest: s.digest, ErrOverTol: s.errOverTol, AutoPick: s.autoPick, Invalid: s.invalid}

	out := layerValues{}
	if cfg.trace {
		before := telemetry.Capture()
		traced := inst.run(stop, tr)
		ledger := telemetry.Capture().Delta(before)
		inst.check(traced)
		res.Failed += traced.failed
		info.Invalid = append(info.Invalid, traced.invalid...)
		inSitu(s, traced, ledger, float64(m1.TotalAlloc-m0.TotalAlloc), out)
		if res.Failed == 0 { // a failed half leaves nothing sound to replay against
			b := fullBudget
			if cfg.quick {
				b = quickBudget
			}
			if err := inst.replay(b, tr, s, out); err != nil {
				inst.close()
				return nil, nil, err
			}
		}
	}
	inst.close()
	if l := leaked(base); l != "" {
		info.Invalid = append(info.Invalid, l)
	}

	if cfg.trace {
		info.TraceFile = filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		meta := map[string]any{"workload": cfg.workload, "seed": cfg.seed, "fabric": fabric, "world": worldSize}
		if err := tr.write(info.TraceFile, meta); err != nil {
			return nil, nil, fmt.Errorf("write trace: %w", err)
		}
	}

	// Counts over the whole process: a healthy loopback run never
	// retransmits, so anything here disqualifies the run.
	whole := telemetry.Capture().Delta(began)
	for _, c := range []string{"cluster.retransmits", "cluster.nacks", "hzdyn.overflow_fallbacks"} {
		out[c] = float64(whole.Counters[c])
		if out[c] > 0 && c != "hzdyn.overflow_fallbacks" {
			info.Invalid = append(info.Invalid, fmt.Sprintf("%s = %v on a healthy fabric", c, out[c]))
		}
	}

	if cfg.trace {
		for _, d := range perLayer() {
			v, measured := out[d.Name]
			if !measured {
				info.Unmeasured = append(info.Unmeasured, d.Name)
			}
			res.Metrics[d.Name] = metricValue{v, d.Unit}
		}
	} else {
		q := s.quiet()
		info.Quiet = len(q.opMS)
		vals := map[string]float64{
			"goodput_mbps": q.mb / q.wall,
			"op_p50_ms":    median(q.opMS),
			"op_p90_ms":    percentile(q.opMS, 0.90),
			"peak_rss_mb":  rss,
			"setup_s":      setupS,
		}
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
		}
	}
	res.Correct = res.Failed == 0 && len(info.Invalid) == 0
	return res, info, nil
}

// inSitu derives the traced pass's ledger: the stage split of the
// workload's own op time from the program's stage histograms, wire bytes
// and pool behaviour from its counters, and what tracing itself cost.
func inSitu(untraced, traced *sample, d telemetry.Snapshot, allocBytes float64, out layerValues) {
	ops := float64(traced.attempted - traced.failed)
	if ops < 1 {
		ops = 1
	}
	stages := map[string]string{
		"core.cpr_ms_per_op":      "core.stage.compress_ns",
		"core.dpr_ms_per_op":      "core.stage.decompress_ns",
		"core.hpr_ms_per_op":      "core.stage.reduce_homomorphic_ns",
		"core.cpt_ms_per_op":      "core.stage.reduce_raw_ns",
		"core.other_ms_per_op":    "core.stage.other_ns",
		"core.sendrecv_ms_per_op": "core.stage.sendrecv_ns",
	}
	total := 0.0
	for _, hist := range stages {
		total += float64(d.Histograms[hist].Sum)
	}
	for name, hist := range stages {
		if total > 0 { // no collective ran: there is no stage ledger
			out[name] = float64(d.Histograms[hist].Sum) / 1e6 / (ops * worldSize) // mean per rank per op
		}
	}
	if traced.rankOpNS > 0 {
		out["core.attributed_frac"] = total / float64(traced.rankOpNS)
	}
	if wire := float64(d.Counters["core.ring.compressed_bytes"] + d.Counters["core.ring.raw_bytes"]); wire > 0 {
		out["core.wire_bytes_per_op"] = wire / ops
		out["core.wire_ratio"] = traced.totalMB() * 1e6 * worldSize / wire
	}
	if gets := float64(d.Counters["bufpool.hits"] + d.Counters["bufpool.misses"]); gets > 0 {
		out["bufpool.hit_frac"] = float64(d.Counters["bufpool.hits"]) / gets
	}
	if p := median(untraced.quiet().opMS); p > 0 {
		out["trace.overhead_frac"] = (median(traced.quiet().opMS) - p) / p
	}
	if len(untraced.opMS) >= 1000 {
		out["op_p99_ms"] = percentile(untraced.opMS, 0.99)
	}
	out["fail_frac"] = float64(untraced.failed) / float64(untraced.attempted)
	out["err_over_tol"] = untraced.errOverTol
	out["alloc_mb_per_op"] = allocBytes / 1e6 / float64(untraced.attempted)
}

func printRun(res *resultLine, info *runInfo) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d fabric %s world %d ops %d samples %d\n",
		info.Workload, info.Seed, fabric, worldSize, res.Attempted, info.Samples)
	for _, n := range names {
		if slices.Contains(info.Unmeasured, n) {
			fmt.Printf("%-36s %14s %s\n", n, "-", res.Metrics[n].Unit)
			continue
		}
		fmt.Printf("%-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, why := range info.Invalid {
		fmt.Fprintf(os.Stderr, "benchmark: INVALID RUN: %s\n", why)
	}
	ib, err := json.Marshal(info)
	if err != nil {
		return err
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("info %s\n%s\n", ib, rb)
	return nil
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
		seed     = flag.Int64("seed", 1, "workload seed: same seed, same inputs")
		seconds  = flag.Float64("seconds", 15, "timed seconds per run")
		trace    = flag.Int("trace", 0, "1 = the traced pass (per-layer metrics, Chrome trace under -out); 0 = end-to-end metrics")
		runs     = flag.Int("runs", 3, "repeats of each workload when running them all")
		outDir   = flag.String("out", "benchmark/out", "directory for trace and result files")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *workload == "" {
		if err := runAll(*seed, *seconds, *runs, *trace == 1, *outDir); err != nil {
			fatal(err)
		}
		return
	}
	// A hung collective must fail this run, not whoever waits on it.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "benchmark: deadline exceeded, aborting")
		os.Exit(3)
	})
	defer watchdog.Stop()
	res, info, err := runWorkload(runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir})
	if err != nil {
		fatal(err)
	}
	if err := printRun(res, info); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
