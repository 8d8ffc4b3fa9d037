package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadResult(path string) (*resultFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// verdict judges one workload × metric pairing of B against base A:
// "regressed" when B's median is worse than A's by more than the bound,
// "unresolved" when either side's own spread is wider than the bound (so
// neither "same" nor "worse" can be said), else "ok".
func verdict(d metricDef, a, b []float64) (worse float64, v string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, "unresolved"
	}
	worse = (mb - ma) / ma
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case spread(a) > d.Bound || spread(b) > d.Bound:
		return worse, "unresolved"
	case worse > d.Bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareFiles prints one row per workload × end-to-end metric and
// reports whether anything regressed or failed more often.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := loadResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResult(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A (base) = %s  commit %s seed %d\nB        = %s  commit %s seed %d\n\n", pathA, a.Provenance.Commit, a.Provenance.Seed, pathB, b.Provenance.Commit, b.Provenance.Seed)
	fmt.Fprintf(w, "%-22s %-13s %12s %12s %9s %8s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "B/A", "spreadA", "spreadB", "bound", "verdict")
	for _, wd := range workloadDefs {
		wa, wb := a.Workloads[wd.Name], b.Workloads[wd.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "%-22s missing from one file\n", wd.Name)
			regressed = true
			continue
		}
		for _, d := range endToEnd {
			va, vb := wa.values(d.Name), wb.values(d.Name)
			worse, v := verdict(d, va, vb)
			if v == "regressed" {
				regressed = true
			}
			fmt.Fprintf(w, "%-22s %-13s %12.5g %12.5g %9.4f %7.1f%% %7.1f%% %6.0f%%  %s (%+.1f%% worse, %s is better, base A)\n",
				wd.Name, d.Name, median(va), median(vb), median(vb)/median(va), 100*spread(va), 100*spread(vb), 100*d.Bound, v, 100*worse, d.Better)
		}
		fa, fb := failFrac(wa), failFrac(wb)
		v := "ok"
		if fb > fa {
			v, regressed = "regressed", true
		}
		fmt.Fprintf(w, "%-22s %-13s %12.5g %12.5g %9s %8s %8s %6.0f%%  %s\n", wd.Name, "fail_frac", fa, fb, "", "", "", 0.0, v)
	}
	return regressed, nil
}

// failFrac is failed ÷ attempted over a workload's runs; a run that died
// without a result counts as one failed attempt.
func failFrac(wr *workloadResult) float64 {
	failed, attempted := 0, 0
	for _, r := range wr.Runs {
		if r.Error != "" {
			failed, attempted = failed+1, attempted+1
			continue
		}
		failed, attempted = failed+r.Result.Failed, attempted+r.Result.Attempted
	}
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}
