package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"hzccl/internal/floatbytes"
)

func writeRaw(t *testing.T, dir, name string, vals []float32) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, floatbytes.Bytes(vals), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompressDecompressCycle(t *testing.T) {
	dir := t.TempDir()
	vals := make([]float32, 5000)
	for i := range vals {
		vals[i] = float32(math.Sin(float64(i) * 0.01))
	}
	in := writeRaw(t, dir, "in.f32", vals)
	comp := filepath.Join(dir, "out.fzl")
	back := filepath.Join(dir, "back.f32")

	if err := run(1e-3, 2, "", false, false, false, comp, "", []string{in}); err != nil {
		t.Fatal(err)
	}
	if err := run(0, 1, "", false, false, true, "", "", []string{comp}); err != nil {
		t.Fatalf("info: %v", err)
	}
	if err := run(0, 1, "", true, false, false, back, "", []string{comp}); err != nil {
		t.Fatalf("decompress: %v", err)
	}
	raw, err := os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	got := floatbytes.Floats(raw)
	for i := range vals {
		if d := math.Abs(float64(vals[i]) - float64(got[i])); d > 1e-3+1e-6 {
			t.Fatalf("cycle error %g at %d", d, i)
		}
	}

	sum := filepath.Join(dir, "sum.fzl")
	if err := run(0, 1, "", false, true, false, sum, "", []string{comp, comp}); err != nil {
		t.Fatalf("add: %v", err)
	}
	back2 := filepath.Join(dir, "sum.f32")
	if err := run(0, 1, "", true, false, false, back2, "", []string{sum}); err != nil {
		t.Fatal(err)
	}
	raw2, _ := os.ReadFile(back2)
	got2 := floatbytes.Floats(raw2)
	for i := range vals {
		if d := math.Abs(float64(got2[i]) - 2*float64(got[i])); d > 1e-6 {
			t.Fatalf("homomorphic CLI sum error %g", d)
		}
	}

}

func TestDimsFlag(t *testing.T) {
	dir := t.TempDir()
	h, w := 32, 64
	vals := make([]float32, h*w)
	for i := 0; i < h; i++ {
		for j := 0; j < w; j++ {
			vals[i*w+j] = float32(math.Sin(float64(j)*0.2) + float64(i)*0.01)
		}
	}
	in := writeRaw(t, dir, "img.f32", vals)
	out1 := filepath.Join(dir, "1d.fzl")
	out2 := filepath.Join(dir, "2d.fzl")
	if err := run(1e-3, 1, "", false, false, false, out1, "", []string{in}); err != nil {
		t.Fatal(err)
	}
	if err := run(1e-3, 1, "32x64", false, false, false, out2, "", []string{in}); err != nil {
		t.Fatal(err)
	}
	s1, _ := os.Stat(out1)
	s2, _ := os.Stat(out2)
	if s2.Size() >= s1.Size() {
		t.Fatalf("2D (%d) should beat 1D (%d) on this image", s2.Size(), s1.Size())
	}
	if err := run(1e-3, 1, "bogus", false, false, false, out2, "", []string{in}); err == nil {
		t.Fatal("bogus dims accepted")
	}
}

func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	if err := run(0, 1, "", false, false, false, filepath.Join(dir, "x"), "", []string{"nope.f32"}); err == nil {
		t.Error("missing input accepted")
	}
	in := writeRaw(t, dir, "short.f32", []float32{1})
	odd := filepath.Join(dir, "odd.bin")
	if err := os.WriteFile(odd, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(1e-3, 1, "", false, false, false, filepath.Join(dir, "x"), "", []string{odd}); err == nil {
		t.Error("non-multiple-of-4 input accepted")
	}
	if err := run(0, 1, "", false, false, false, filepath.Join(dir, "x"), "", []string{in}); err == nil {
		t.Error("zero error bound accepted")
	}
	if err := run(1e-3, 1, "", false, false, false, "", "", []string{in}); err == nil {
		t.Error("missing -o accepted")
	}
	if err := run(0, 1, "", false, false, true, "", "", []string{}); err == nil {
		t.Error("info without file accepted")
	}
	if err := run(0, 1, "", false, true, false, "x", "", []string{in}); err == nil {
		t.Error("add with one file accepted")
	}
}

func TestParseDims(t *testing.T) {
	if d := parseDims(""); d != nil {
		t.Fatal("empty dims")
	}
	if d := parseDims("4x8"); len(d) != 2 || d[0] != 4 || d[1] != 8 {
		t.Fatalf("2d dims: %v", d)
	}
	if d := parseDims("2X3x4"); len(d) != 3 || d[0] != 2 || d[2] != 4 {
		t.Fatalf("3d dims: %v", d)
	}
	if d := parseDims("axb"); len(d) == 2 {
		t.Fatal("garbage dims parsed")
	}
}

func TestCompareFlag(t *testing.T) {
	dir := t.TempDir()
	vals := make([]float32, 1000)
	for i := range vals {
		vals[i] = float32(math.Cos(float64(i) * 0.02))
	}
	in := writeRaw(t, dir, "in.f32", vals)
	comp := filepath.Join(dir, "out.fzl")
	back := filepath.Join(dir, "back.f32")
	if err := run(1e-3, 1, "", false, false, false, comp, "", []string{in}); err != nil {
		t.Fatal(err)
	}
	if err := run(0, 1, "", true, false, false, back, in, []string{comp}); err != nil {
		t.Fatalf("decompress with -compare: %v", err)
	}
	// A length mismatch between original and reconstruction must error,
	// not print metrics over nothing.
	short := writeRaw(t, dir, "short.f32", vals[:10])
	if err := run(0, 1, "", true, false, false, back, short, []string{comp}); err == nil {
		t.Fatal("-compare with mismatched length should fail")
	}
}

func TestFmtMetric(t *testing.T) {
	if got := fmtMetric(math.NaN()); got != "n/a" {
		t.Fatalf("NaN prints %q, want n/a", got)
	}
	if got := fmtMetric(math.Inf(1)); got != "+Inf" {
		t.Fatalf("+Inf prints %q", got)
	}
	if got := fmtMetric(0.5); got != "0.5" {
		t.Fatalf("0.5 prints %q", got)
	}
}
