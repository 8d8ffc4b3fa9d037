package main

import (
	"bytes"
	"strings"
	"testing"
)

// One experiment by ID prints its banner and its table's header row.
func TestRunsOneExperiment(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-experiment", "table5", "-quick"}, &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	for _, want := range []string{"===== table5: ", "Dataset", "Pipeline4"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// An unknown ID runs nothing, exits 2 and lists the registry.
func TestUnknownExperimentExitsTwo(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-experiment", "table5,nope", "-quick"}, &out, &errs); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Errorf("ran experiments before rejecting the list:\n%s", out.String())
	}
	for _, want := range []string{`"nope"`, "table3", "fig13", "szx-quality"} {
		if !strings.Contains(errs.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, errs.String())
		}
	}
}
