package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// childDeadline bounds one workload run in a child process; a hung
// collective fails that run and the runner moves on.
const childDeadline = 175 * time.Second

// resultFile is what a full run leaves behind and -compare reads.
type resultFile struct {
	Provenance provenance                 `json:"provenance"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

type provenance struct {
	Seed       int64   `json:"seed"`
	Commit     string  `json:"commit"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	World      int     `json:"world"`
	Fabric     string  `json:"fabric"`
	Seconds    float64 `json:"seconds"`
	Runs       int     `json:"runs"`
	When       string  `json:"when"`
}

type workloadResult struct {
	Runs   []childRun `json:"runs"`
	Traced *childRun  `json:"traced,omitempty"`
}

type childRun struct {
	Result resultLine `json:"result"`
	Info   runInfo    `json:"info"`
	Error  string     `json:"error,omitempty"` // the child died, hung or printed no result
}

// runChild re-executes this binary for one workload run, so peak RSS, GC
// state and buffer pools never leak from one workload into the next.
func runChild(workload string, seed int64, seconds float64, trace bool, outDir string) childRun {
	self, err := os.Executable()
	if err != nil {
		return childRun{Error: err.Error()}
	}
	t := "0"
	if trace {
		t = "1"
	}
	ctx, cancel := context.WithTimeout(context.Background(), childDeadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", t, "-out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return childRun{Error: fmt.Sprintf("killed after %v: %v", childDeadline, err)}
		}
		return childRun{Error: err.Error()}
	}
	var run childRun
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.Result); err != nil {
		return childRun{Error: fmt.Sprintf("no result line: %v", err)}
	}
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "info "); ok {
			if err := json.Unmarshal([]byte(rest), &run.Info); err != nil {
				return childRun{Error: fmt.Sprintf("bad info line: %v", err)}
			}
		}
	}
	return run
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // a source checkout without its repository
	}
	return strings.TrimSpace(string(out))
}

// runAll runs every workload `runs` times (and, with trace, the traced
// pass once), prints every metric by name and writes the result file.
func runAll(seed int64, seconds float64, runs int, trace bool, outDir string) error {
	file := resultFile{
		Provenance: provenance{Seed: seed, Commit: gitCommit(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), World: worldSize, Fabric: fabric, Seconds: seconds, Runs: runs,
			When: time.Now().UTC().Format(time.RFC3339)},
		Workloads: map[string]*workloadResult{},
	}
	var bad []string
	note := func(w string, c childRun) {
		switch {
		case c.Error != "":
			bad = append(bad, fmt.Sprintf("%s: %s", w, c.Error))
		case !c.Result.Correct:
			bad = append(bad, fmt.Sprintf("%s: invalid run: %v (failed %d of %d)", w, c.Info.Invalid, c.Result.Failed, c.Result.Attempted))
		}
	}
	for _, w := range workloadDefs {
		wr := &workloadResult{}
		file.Workloads[w.Name] = wr
		for r := 0; r < runs; r++ {
			c := runChild(w.Name, seed, seconds, false, outDir)
			note(w.Name, c)
			wr.Runs = append(wr.Runs, c)
		}
		if trace {
			c := runChild(w.Name, seed, seconds, true, outDir)
			note(w.Name, c)
			wr.Traced = &c
		}
		printWorkload(w.Name, wr)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-seed%d-%s.json", seed, time.Now().UTC().Format("20060102T150405")))
	buf, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Println("result file:", path)
	if len(bad) > 0 {
		return errors.New("runs that must not be reported as healthy:\n  " + strings.Join(bad, "\n  "))
	}
	return nil
}

// values gathers one metric over a workload's healthy untraced runs:
// those that ended with a result and whose outputs and hygiene checked out.
func (wr *workloadResult) values(metric string) []float64 {
	var v []float64
	for _, r := range wr.Runs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Error == "" && r.Result.Correct {
			v = append(v, m.Value)
		}
	}
	return v
}

func printWorkload(name string, wr *workloadResult) {
	fmt.Printf("\n== %s (%s, world %d)\n", name, fabric, worldSize)
	for _, d := range endToEnd {
		v := wr.values(d.Name)
		fmt.Printf("%-36s %14.6g %-6s median of %d runs, spread %.1f%%\n", d.Name, median(v), d.Unit, len(v), 100*spread(v))
	}
	for i, r := range wr.Runs {
		fmt.Printf("  run %d: ops %d samples %d failed %d digest %s %s\n", i, r.Result.Attempted, r.Info.Samples, r.Result.Failed, r.Info.Digest, r.Info.AutoPick)
	}
	if wr.Traced != nil && wr.Traced.Error == "" {
		for _, d := range perLayer() {
			if !slices.Contains(wr.Traced.Info.Unmeasured, d.Name) {
				fmt.Printf("%-36s %14.6g %s\n", d.Name, wr.Traced.Result.Metrics[d.Name].Value, d.Unit)
			}
		}
		fmt.Println("  trace file:", wr.Traced.Info.TraceFile)
	}
}
