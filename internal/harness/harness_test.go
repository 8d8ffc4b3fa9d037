package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"hzccl/internal/datasets"
	"hzccl/internal/fzlight"
	"hzccl/internal/metrics"
	"hzccl/internal/telemetry"
)

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.Len == 0 || o.Nodes == 0 || o.MaxNodes == 0 || o.MessageBytes == 0 ||
		len(o.SweepBytes) == 0 {
		t.Fatalf("unfilled defaults: %+v", o)
	}
	q := Options{Quick: true}.WithDefaults()
	if q.Len >= o.Len || q.Nodes >= o.Nodes || q.MaxNodes >= o.MaxNodes {
		t.Fatalf("quick options not smaller: %+v vs %+v", q, o)
	}
	// explicit values survive
	e := Options{Nodes: 3, MessageBytes: 12}.WithDefaults()
	if e.Nodes != 3 || e.MessageBytes != 12 {
		t.Fatalf("explicit values overwritten: %+v", e)
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table3", "table4", "table5", "table6", "table7",
		"fig2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"szx-quality", "predictors"}
	for _, id := range want {
		if _, ok := Find(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(Experiments()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(Experiments()), len(want))
	}
	if _, ok := Find("nope"); ok {
		t.Error("bogus id found")
	}
}

func TestExperimentsSorted(t *testing.T) {
	exps := Experiments()
	var prev string
	for _, e := range exps {
		k := idKey(e.ID)
		if k < prev {
			t.Fatalf("registry not sorted: %s after %s", e.ID, prev)
		}
		prev = k
	}
	// tables come before figures
	if exps[0].ID[:5] != "table" {
		t.Fatalf("first experiment %s, want a table", exps[0].ID)
	}
}

func TestTableFormatting(t *testing.T) {
	tb := NewTable("A", "Blah")
	tb.Row("x", "1")
	tb.Row("longer", "2", "dropped-cell")
	var buf bytes.Buffer
	tb.Fprint(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "A") || !strings.Contains(lines[0], "Blah") {
		t.Fatalf("header: %q", lines[0])
	}
	if strings.Contains(out, "dropped-cell") {
		t.Fatal("extra cell not dropped")
	}
}

func TestFormatHelpers(t *testing.T) {
	cases := map[float64]string{0: "0", 12345: "12345", 42.3: "42.3", 3.14159: "3.14", 0.0001: "1.00e-04"}
	for in, want := range cases {
		if got := F(in); got != want {
			t.Errorf("F(%g) = %q want %q", in, got, want)
		}
	}
	if Pct(0.5) != "50.00%" {
		t.Errorf("Pct: %s", Pct(0.5))
	}
	if Bytes(2<<30) != "2GB" || Bytes(3<<20) != "3MB" || Bytes(5<<10) != "5KB" || Bytes(100) != "100B" {
		t.Error("Bytes formatting wrong")
	}
}

func TestKernelNames(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range Kernels {
		name := KernelName(k)
		if name == "" || seen[name] {
			t.Fatalf("bad kernel name %q", name)
		}
		seen[name] = true
	}
	if KernelName(42) != "kernel42" {
		t.Fatal("unknown kernel name")
	}
}

func TestCollectiveFieldProfiles(t *testing.T) {
	n := 1 << 16
	a := collectiveField(sparseRTM, n, 0, 16)
	zeros := 0
	for _, v := range a {
		if v == 0 {
			zeros++
		}
	}
	if float64(zeros)/float64(n) < 0.5 {
		t.Fatalf("sparse snapshot only %.1f%% zeros", 100*float64(zeros)/float64(n))
	}
	b := collectiveField(sparseRTM, n, 1, 16)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("snapshots identical across ranks")
	}
	s := collectiveField(smoothRTM, n, 0, 16)
	zeros = 0
	for _, v := range s {
		if v == 0 {
			zeros++
		}
	}
	if zeros > n/2 {
		t.Fatal("smooth snapshot unexpectedly sparse")
	}
	if len(collectiveField(sparseRTM, 0, 0, 4)) != 0 {
		t.Fatal("zero-length field")
	}
	// tiny fields must not panic
	_ = collectiveField(sparseRTM, 10, 3, 512)
}

func TestCalibrateProducesRates(t *testing.T) {
	r, err := calibrate(1e-3, rtmSnapshots(sparseRTM, 1<<14, 8)...)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{"CPR": r.CPR, "DPR": r.DPR, "CPT": r.CPT, "HPR": r.HPR} {
		if !(v > 0) {
			t.Errorf("%s rate %g", name, v)
		}
	}
}

// Smoke-run every experiment at miniature scale: each must complete and
// print at least a header row.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke runs take a few seconds")
	}
	opt := Options{
		Quick:        true,
		Len:          1 << 14,
		Nodes:        4,
		MaxNodes:     8,
		MessageBytes: 1 << 16,
		SweepBytes:   []int{1 << 15, 1 << 16},
		OutDir:       t.TempDir(),
	}
	for _, e := range Experiments() {
		var buf bytes.Buffer
		if err := e.Run(&buf, opt); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", e.ID)
		}
	}
	// fig13 must have written the PGMs
	for _, name := range []string{"exact.pgm", "hzccl.pgm"} {
		if _, err := os.Stat(filepath.Join(opt.OutDir, name)); err != nil {
			t.Errorf("fig13 output %s missing: %v", name, err)
		}
	}
}

// bestOf times every codec figure of this package (Fig. 6, Tables IV–VI,
// the calibrated rates of the collective and stacking experiments), which
// are single-thread figures or scaled by MTSpeedup: at any GOMAXPROCS a
// chunk long enough to split across cores runs inside it as one segment.
func TestBestOfTimesOneCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	data, err := datasets.Field("CESM-ATM", 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	p := fzlight.Params{ErrorBound: metrics.AbsBound(1e-4, data)}
	compress := func() error { _, err := fzlight.Compress(data, p); return err }
	// offCore runs f and reports the extra segments its compressions split
	// into and the tasks the fanout runner's helpers took.
	offCore := func(f func()) (split, helped int64) {
		before := telemetry.Capture()
		f()
		d := telemetry.Capture().Delta(before).Counters
		return d["fzlight.compress.segments"] - d["fzlight.compress.outliers"], d["fanout.helper_tasks"]
	}
	if split, _ := offCore(func() { compress() }); split == 0 {
		t.Fatal("the field does not split at GOMAXPROCS 4; the test proves nothing")
	}
	if split, helped := offCore(func() {
		if _, err := bestOf(2, compress); err != nil {
			t.Fatal(err)
		}
	}); split != 0 || helped != 0 {
		t.Errorf("bestOf split %d extra segments and gave %d tasks to helpers, want one core", split, helped)
	}
}
