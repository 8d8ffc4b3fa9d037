package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"hzccl/internal/datasets"
	"hzccl/internal/fzlight"
	"hzccl/internal/telemetry"
)

// The in-process runs charge codec calls at modelled rates and run them
// inside fanout.Inline, so at any GOMAXPROCS their codec calls stay on one
// core: no block is split into segments, no chunk runs on a helper. The
// other ranks of a run already occupy the cores.
func TestInprocRunsTimeOneCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const nodes, message = 2, 4 << 20 // ring blocks of 512 Ki elements
	// offCore runs f and reports the extra segments its compressions split
	// into and the tasks the fanout runner's helpers took.
	offCore := func(f func() error) (split, helped int64) {
		before := telemetry.Capture()
		if err := f(); err != nil {
			t.Fatal(err)
		}
		d := telemetry.Capture().Delta(before).Counters
		if d["fzlight.compress.outliers"] == 0 {
			t.Fatal("nothing was compressed")
		}
		return d["fzlight.compress.segments"] - d["fzlight.compress.outliers"], d["fanout.helper_tasks"]
	}
	block, err := datasets.Field("SimSet1", 0, message/4/nodes)
	if err != nil {
		t.Fatal(err)
	}
	if split, _ := offCore(func() error { _, err := fzlight.Compress(block, fzlight.Params{ErrorBound: 1e-3}); return err }); split == 0 {
		t.Fatal("a ring block does not split at GOMAXPROCS 4; the test proves nothing")
	}
	for name, run := range map[string]func() error{
		"inproc": func() error {
			return runTransport("inproc", 0, "", "hzccl", "ring", "", nodes, message, 1e-4, "", nil, -1, 0, 0)
		},
		"trace": func() error { return writeTrace(filepath.Join(t.TempDir(), "t.json"), nodes, message) },
		"chaos": func() error { return runChaosDemo(1, 0, nodes, message) },
	} {
		if split, helped := offCore(run); split != 0 || helped != 0 {
			t.Errorf("%s: split %d extra segments and gave %d tasks to helpers, want every codec call on one core", name, split, helped)
		}
	}
}

// -trace's Allreduce charges its codec calls at modelled rates and records
// each call's wall span beside them: the Chrome trace holds every compute
// stage on both the virtual (pid 0) and the wall (pid 1) timeline.
func TestTraceHasVirtualAndWallCompute(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	if err := writeTrace(path, 2, 1<<18); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatal(err)
	}
	seen := map[int]map[string]bool{0: {}, 1: {}}
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" && ev.Dur > 0 && seen[ev.Pid] != nil {
			seen[ev.Pid][ev.Name] = true
		}
	}
	for pid, names := range seen {
		for _, stage := range []string{"CPR", "HPR", "DPR"} {
			if !names[stage] {
				t.Errorf("pid %d has no %s slice (saw %v)", pid, stage, names)
			}
		}
	}
}
