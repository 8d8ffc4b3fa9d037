package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"hzccl/serve"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]metricValue) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func quickRun(t *testing.T, workload string, seed int64, ops int, trace bool) (*resultLine, *runInfo) {
	t.Helper()
	res, info, err := runWorkload(runConfig{workload: workload, seed: seed, ops: ops, trace: trace, quick: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s: not a healthy run: failed %d of %d, invalid %v", workload, res.Failed, res.Attempted, info.Invalid)
	}
	if info.ErrOverTol <= 0 || info.ErrOverTol > 1 {
		t.Fatalf("%s: err_over_tol = %v, want in (0, 1]", workload, info.ErrOverTol)
	}
	return res, info
}

// Every workload runs, checks its outputs, leaves no goroutine or
// descriptor behind, and emits exactly the end-to-end metrics.
func TestEveryWorkloadRuns(t *testing.T) {
	want := names(endToEnd)
	for _, w := range workloadDefs {
		res, _ := quickRun(t, w.Name, 3, 3, false)
		if got := keys(res.Metrics); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: metrics %v, want %v", w.Name, got, want)
		}
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, an end-to-end metric must never be 0", w.Name, name, m.Value)
			}
		}
	}
}

// Every workload's traced pass emits every per-layer name and a loadable
// trace; each name is measured by at least one workload (the others list
// it as unmeasured and report 0); and the same seed gives the same
// inputs, digests and exact-count metrics.
func TestTracedPassIsCompleteAndRepeatable(t *testing.T) {
	want := names(perLayer())
	traced := map[string]*resultLine{}
	infos := map[string]*runInfo{}
	measuredBy := map[string][]string{}
	for _, w := range workloadDefs {
		seed := int64(6)
		for w.Name == "serve-mixed" && !slices.ContainsFunc(serveJobs(seed)[:4], func(j serve.JobSpec) bool { return j.Algorithm == "auto" }) {
			seed++ // the four jobs the pass runs must include an auto pick to record
		}
		res, info := quickRun(t, w.Name, seed, 4, true)
		traced[w.Name], infos[w.Name] = res, info
		if got := keys(res.Metrics); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("%s: traced metrics differ from the per-layer list:\n got %v\nwant %v", w.Name, got, want)
		}
		for _, name := range want {
			switch {
			case !slices.Contains(info.Unmeasured, name):
				measuredBy[name] = append(measuredBy[name], w.Name)
			case res.Metrics[name].Value != 0:
				t.Errorf("%s: %s is listed as unmeasured but reads %v", w.Name, name, res.Metrics[name].Value)
			}
		}
	}
	for _, name := range want {
		// Only a workload of ≥ 1000 samples has a p99; no quick run does.
		if len(measuredBy[name]) == 0 && name != "op_p99_ms" {
			t.Errorf("no workload measures %s", name)
		}
	}
	// A layer is replayed where it is exercised, and only there.
	for name, by := range map[string]string{
		"bitio.pack_mbps":             "codec-pipeline",
		"fzlight.compress_mbps.nyx":   "codec-pipeline",
		"szx.compress_mbps":           "codec-pipeline",
		"hzdyn.add_mbps.cesm-atm":     "allreduce-hz-large allreduce-hz-small codec-pipeline",
		"fzlight.ratio.cesm-atm":      "allreduce-hz-large allreduce-ccoll-large allreduce-hz-small codec-pipeline",
		"cluster.tcp.stream_mbps":     "allreduce-hz-large allreduce-ccoll-large allreduce-mpi-large allreduce-hz-small",
		"core.allreduce_ms.mpi.ring":  "allreduce-mpi-large serve-mixed",
		"costmodel.auto_regret.small": "allreduce-hz-small",
		"serve.overhead_ms":           "serve-mixed",
		"core.sendrecv_ms_per_op":     "allreduce-hz-large allreduce-ccoll-large allreduce-mpi-large allreduce-hz-small serve-mixed",
		"hzdyn.overflow_fallbacks":    "allreduce-hz-large allreduce-ccoll-large allreduce-mpi-large allreduce-hz-small serve-mixed codec-pipeline",
	} {
		if got := strings.Join(measuredBy[name], " "); got != by {
			t.Errorf("%s measured by [%s], want [%s]", name, got, by)
		}
	}

	a, ia, ic := traced["allreduce-hz-small"], infos["allreduce-hz-small"], infos["serve-mixed"]
	b, ib := quickRun(t, "allreduce-hz-small", 6, 4, true)
	if ia.Digest != ib.Digest || ia.ErrOverTol != ib.ErrOverTol {
		t.Errorf("same seed, different outputs: digest %s vs %s, err/tol %v vs %v", ia.Digest, ib.Digest, ia.ErrOverTol, ib.ErrOverTol)
	}
	exact := []string{"err_over_tol", "core.wire_bytes_per_op", "core.wire_ratio", "cluster.retransmits", "cluster.nacks"}
	for _, d := range datasetSlugs {
		exact = append(exact, "fzlight.ratio."+d.Slug, "hzdyn.frac_p4."+d.Slug)
	}
	for _, name := range exact {
		if a.Metrics[name].Value != b.Metrics[name].Value {
			t.Errorf("%s is an exact count but read %v then %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
	if _, other := quickRun(t, "allreduce-hz-small", 7, 4, false); other.Digest == ia.Digest {
		t.Errorf("seeds 6 and 7 produced the same digest %s: the seed does not reach the inputs", ia.Digest)
	}
	if ia.AutoPick == "" || ic.AutoPick == "" {
		t.Errorf("auto picks not recorded: %q, %q", ia.AutoPick, ic.AutoPick)
	}
	for _, info := range []*runInfo{ia, ic} {
		buf, err := os.ReadFile(info.TraceFile)
		if err != nil {
			t.Fatal(err)
		}
		var tf struct {
			TraceEvents []struct {
				Name string
				Ph   string
				Dur  float64
				Args map[string]int
			}
		}
		if err := json.Unmarshal(buf, &tf); err != nil {
			t.Fatalf("trace file does not load: %v", err)
		}
		children := 0
		for _, e := range tf.TraceEvents {
			if e.Ph != "X" || e.Name == "" {
				t.Fatalf("bad trace event %+v", e)
			}
			if e.Args["parent"] != 0 {
				children++
			}
		}
		if children == 0 {
			t.Errorf("%s: no span names its parent", info.TraceFile)
		}
	}
}

// Every pass over the daemon workload starts at the head of its job list,
// so the two halves of a traced run time the same jobs.
func TestServePassesTimeTheSameJobs(t *testing.T) {
	inst, err := serveSetup(6, true)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	specs := func() []int {
		s := measure(inst, stopRule{ops: 5}, nil)
		if s.failed > 0 {
			t.Fatalf("pass failed: %v", s.invalid)
		}
		var idx []int
		for _, j := range s.jobs {
			idx = append(idx, j.spec)
		}
		sort.Ints(idx)
		return idx
	}
	if a, b := specs(), specs(); !slices.Equal(a, b) || !slices.Equal(a, []int{0, 1, 2, 3, 4}) {
		t.Errorf("two passes ran job specs %v then %v, want 0..4 both times", a, b)
	}
}

// BENCHMARK.json and spec.go state the same contract, within the limits
// the benchmark contract sets.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 || n != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go, limit 2..8", n, len(workloadDefs))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadDefs[i].Name || w.Why != workloadDefs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec.go %q (or the why differs)", i, w.Name, workloadDefs[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %q breaks the name or why limits", w.Name)
		}
		if setups[w.Name] == nil {
			t.Errorf("workload %q has no set-up", w.Name)
		}
	}
	check := func(kind string, got []jm, want []metricDef, max int, bounded bool) {
		if len(got) != len(want) || len(got) < 1 || len(got) > max {
			t.Fatalf("%s: %d in BENCHMARK.json, %d in spec.go, limit %d", kind, len(got), len(want), max)
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, spec.go %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(g.Name) || !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(g.Unit) {
				t.Errorf("%s %q: name or unit %q outside the contract", kind, g.Name, g.Unit)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != w.Bound || *g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s %q: bound %v, spec.go %v", kind, g.Name, g.Bound, w.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, 16, true)
	check("per_layer", spec.PerLayer, perLayer(), 128, false)
	seen := map[string]bool{}
	for _, n := range append(append(names(endToEnd), names(perLayer())...), func() []string {
		var w []string
		for _, d := range workloadDefs {
			w = append(w, d.Name)
		}
		return w
	}()...) {
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	hasSetup := false
	for _, d := range endToEnd {
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup || spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("setup_s, run_seconds or paths outside the contract: %+v", spec)
	}
}

func syntheticResult(scale float64) *resultFile {
	f := &resultFile{Workloads: map[string]*workloadResult{}}
	for _, w := range workloadDefs {
		wr := &workloadResult{}
		for r := 0; r < 5; r++ {
			jitter := 1 + 0.004*float64(r)
			m := map[string]metricValue{}
			for _, d := range endToEnd {
				v := 100 * jitter
				if w.Name == "allreduce-mpi-large" && strings.HasPrefix(d.Name, "op_p") {
					v *= scale
				}
				if w.Name == "allreduce-mpi-large" && d.Name == "goodput_mbps" {
					v /= scale
				}
				m[d.Name] = metricValue{v, d.Unit}
			}
			wr.Runs = append(wr.Runs, childRun{Result: resultLine{Correct: true, Attempted: 100, Metrics: m}})
		}
		f.Workloads[w.Name] = wr
	}
	return f
}

// -compare passes a file against itself and flags a slowdown beyond the
// bounds (35 % against 25 %) of one workload, on that workload's rows only.
func TestCompareFlagsSlowdown(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, f *resultFile) string {
		buf, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base, slow := write("a.json", syntheticResult(1)), write("b.json", syntheticResult(1.35))
	var out bytes.Buffer
	if regressed, err := compareFiles(&out, base, base); err != nil || regressed {
		t.Fatalf("a file against itself: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	regressed, err := compareFiles(&out, base, slow)
	if err != nil || !regressed {
		t.Fatalf("35%% slowdown not flagged: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		isSlowRow := strings.HasPrefix(line, "allreduce-mpi-large") && (strings.Contains(line, " op_p") || strings.Contains(line, " goodput_mbps"))
		if strings.Contains(line, "regressed") != isSlowRow {
			t.Errorf("wrong verdict on row: %s", line)
		}
	}
	// A run whose outputs did not check out counts as a failure, never as
	// a measurement: its numbers stay out of the medians and spreads.
	broken := syntheticResult(1)
	run := &broken.Workloads["codec-pipeline"].Runs[0].Result
	run.Correct, run.Metrics["op_p50_ms"] = false, metricValue{1e6, "ms"}
	if v := broken.Workloads["codec-pipeline"].values("op_p50_ms"); len(v) != 4 || slices.Max(v) > 200 {
		t.Errorf("an incorrect run fed the medians: %v", v)
	}
	worse := syntheticResult(1)
	worse.Workloads["serve-mixed"].Runs[0].Result.Failed = 1
	if regressed, _ := compareFiles(&out, base, write("c.json", worse)); !regressed {
		t.Error("a higher fail_frac must fail the comparison")
	}
}

// The end-to-end numbers come from the fastest quarter of a pass: a
// stretch the host slowed down drops out, a pass too short to cut up is
// taken whole.
func TestQuietQuarter(t *testing.T) {
	s := newSample(0)
	at := 0.0
	for i := 0; i < 200; i++ {
		ms := 10.0
		if i < 120 { // the first three fifths of the pass ran at half speed
			ms = 20
		}
		at += ms / 1e3
		s.opMS, s.doneAt, s.opMB = append(s.opMS, ms), append(s.doneAt, at), append(s.opMB, 1)
	}
	s.wall = at
	q := s.quiet()
	if len(q.opMS) != 50 || median(q.opMS) != 10 || percentile(q.opMS, 0.9) != 10 {
		t.Errorf("quiet quarter: %d ops, p50 %v, want 50 ops at 10 ms", len(q.opMS), median(q.opMS))
	}
	if got := q.mb / q.wall; got < 99.9 || got > 100.1 {
		t.Errorf("quiet goodput %v MB/s, want 100", got)
	}
	short := &sample{opMS: []float64{1, 2, 3}, doneAt: []float64{1, 2, 3}, opMB: []float64{1, 1, 1}, wall: 3}
	if q := short.quiet(); len(q.opMS) != 3 || q.mb != 3 || q.wall != 3 {
		t.Errorf("a short pass must be taken whole, got %+v", q)
	}
}

// quartiles is Python's statistics.quantiles(v, n=4), the rule the
// benchmark's acceptance is written in.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if q1, _, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of 1,2 = %v .. %v, want 0.75 .. 2.25", q1, q3)
	}
}
