package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hzccl/internal/datasets"
	"hzccl/internal/floatbytes"
)

var update = flag.Bool("update", false, "rewrite testdata/summary.txt from the current generators")

// The -summary text of every dataset at 4096 elements, fields 0 and 1,
// against testdata/summary.txt: its first line carries the field's
// crc32c, so a change to any generator's bits fails here as well as in
// the datasets package (regenerate with -update only for a change meant
// to move them).
func TestSummaryText(t *testing.T) {
	var got bytes.Buffer
	for _, name := range datasets.Names() {
		for f := 0; f < 2; f++ {
			if err := run(&got, false, name, f, 4096, "", true); err != nil {
				t.Fatal(err)
			}
		}
	}
	golden := filepath.Join("testdata", "summary.txt")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := got.String(), string(want); g != w {
		gl, wl := strings.Split(g, "\n"), strings.Split(w, "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("summary line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("summary has %d lines, want %d", len(gl), len(wl))
	}
}

// -o writes the field's raw little-endian float32s; -list names every
// dataset; a bad request is an error.
func TestWriteListAndErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.f32")
	var out bytes.Buffer
	if err := run(&out, false, "CESM-ATM", 3, 1000, path, false); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := datasets.Field("CESM-ATM", 3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, floatbytes.Bytes(want)) {
		t.Fatal("-o wrote other bytes than the field's")
	}
	out.Reset()
	if err := run(&out, true, "", 0, 0, "", false); err != nil {
		t.Fatal(err)
	}
	for _, name := range datasets.Names() {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list does not name %s:\n%s", name, out.String())
		}
	}
	for _, c := range []struct {
		name, out string
		summary   bool
	}{{"", "", true}, {"nope", "", true}, {"NYX", "", false}} {
		if err := run(&out, false, c.name, 0, 16, c.out, c.summary); err == nil {
			t.Errorf("run(dataset %q, o %q, summary %v) returned no error", c.name, c.out, c.summary)
		}
	}
}
