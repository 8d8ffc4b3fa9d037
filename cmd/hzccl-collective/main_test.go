package main

import (
	"path/filepath"
	"runtime"
	"testing"

	"hzccl/internal/datasets"
	"hzccl/internal/fzlight"
	"hzccl/internal/telemetry"
)

// The in-process runs charge measured codec time as one rank's
// single-thread time (divided by MTSpeedup for -trace's multi-thread
// Allreduce, whose compressor writes 18 chunks), so at any GOMAXPROCS
// their codec calls run on one core: no block is split into segments, no
// chunk runs on a helper (core's measured work runs in fanout.Inline).
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
