package fzlight

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hzccl/internal/datasets"
	"hzccl/internal/simd"
)

// DecompressAddInto against the two passes it fuses: DecompressInto into a
// scratch vector, then sums[i] + v element by element in Go.

// addSpecials are float32 bit patterns planted among the sums: NaNs with
// payloads, both zeros, denormals, infinities and the extremes.
var addSpecials = []uint32{
	0x7fc00000, 0x7fc00001, 0xffc12345, 0x7fa00000, 0xff800001,
	0x00000000, 0x80000000, 0x00000001, 0x807fffff,
	0x7f800000, 0xff800000, 0x7f7fffff, 0xff7fffff,
}

// twoPass is the reference: DecompressInto, then the scalar add.
func twoPass(t *testing.T, comp []byte, sums []float32) []float32 {
	t.Helper()
	dec := make([]float32, len(sums))
	if err := DecompressInto(comp, dec); err != nil {
		t.Fatal(err)
	}
	want := make([]float32, len(sums))
	for i := range want {
		want[i] = sums[i] + dec[i]
	}
	return want
}

// checkAddInto runs DecompressAddInto on comp both into a disjoint dst,
// which it must fill and not overrun, leaving sums alone, and in place on a
// copy of sums; both must give want bit for bit.
func checkAddInto(t *testing.T, what string, comp []byte, sums, want []float32) {
	t.Helper()
	n := len(sums)
	keep := append([]float32(nil), sums...)
	dst := make([]float32, n+3)
	for i := range dst {
		dst[i] = math.Float32frombits(0xA5A5A5A5)
	}
	if err := DecompressAddInto(comp, sums, dst); err != nil {
		t.Fatalf("%s, disjoint: %v", what, err)
	}
	if !sameBits(dst[:n], want) || !sameBits(sums, keep) {
		t.Fatalf("%s, disjoint: bits differ from DecompressInto + add, or sums changed", what)
	}
	for _, v := range dst[n:] {
		if math.Float32bits(v) != 0xA5A5A5A5 {
			t.Fatalf("%s, disjoint: wrote past DataLen", what)
		}
	}
	acc := append([]float32(nil), sums...)
	if err := DecompressAddInto(comp, acc, acc); err != nil {
		t.Fatalf("%s, in place: %v", what, err)
	}
	if !sameBits(acc, want) {
		t.Fatalf("%s, in place: bits differ from DecompressInto + add", what)
	}
}

// Every dataset at lengths around the block and kernel-run edges and at
// three relative bounds, one and several chunks: the fused decode is the
// two passes, bit for bit, in place and into a disjoint vector.
func TestDecompressAddMatchesTwoPass(t *testing.T) {
	for _, name := range datasets.Names() {
		for _, n := range []int{1, 31, 32, 33, 4097, 1 << 17} {
			data, err := datasets.Field(name, 0, n)
			if err != nil {
				t.Fatal(err)
			}
			sums, err := datasets.Field(name, 1, n)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i += 97 {
				sums[i] = math.Float32frombits(addSpecials[i/97%len(addSpecials)])
			}
			lo, hi := data[0], data[0]
			for _, v := range data {
				lo, hi = min(lo, v), max(hi, v)
			}
			span := float64(hi - lo)
			if span == 0 { // one value, or a constant field
				span = max(math.Abs(float64(lo)), 1)
			}
			for _, rel := range []float64{1e-2, 1e-3, 1e-4} {
				// The paper's value-range-relative bound (an absolute 1e-4
				// would put NYX out of the quantiser's range).
				eb := rel * span
				comp, err := Compress(data, Params{ErrorBound: eb, Threads: 1 + n%3})
				if err != nil {
					t.Fatalf("%s n=%d eb=%g: %v", name, n, eb, err)
				}
				checkAddInto(t, name, comp, sums, twoPass(t, comp, sums))
			}
		}
	}
}

// The Lorenzo layouts take the portable step, with the same result.
func TestDecompressAddLorenzo(t *testing.T) {
	data, sums := smoothField(12*16*5, 3), smoothField(12*16*5, 4)
	sums[7] = math.Float32frombits(0x7fc00001)
	for _, mk := range []func() ([]byte, error){
		func() ([]byte, error) { return Compress2D(data, 60, 16, Params{ErrorBound: 1e-3, Threads: 2}) },
		func() ([]byte, error) { return Compress3D(data, 5, 12, 16, Params{ErrorBound: 1e-3, Threads: 2}) },
	} {
		comp, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		checkAddInto(t, "lorenzo", comp, sums, twoPass(t, comp, sums))
	}
}

// Misuse fails typed before anything is written: sums shorter than the
// container, dst shorter, a container with a flag set (such as the
// float64 bit of earlier builds).
func TestDecompressAddIntoErrors(t *testing.T) {
	data := smoothField(100, 5)
	comp, err := Compress(data, Params{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if err := DecompressAddInto(comp, make([]float32, 99), make([]float32, 100)); !errors.Is(err, ErrShortOutput) {
		t.Errorf("short sums: %v", err)
	}
	if err := DecompressAddInto(comp, make([]float32, 100), make([]float32, 99)); !errors.Is(err, ErrShortOutput) {
		t.Errorf("short dst: %v", err)
	}
	flagged := append([]byte(nil), comp...)
	flagged[5] = 0x01
	if err := DecompressAddInto(flagged, make([]float32, 100), make([]float32, 100)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("flagged container: %v", err)
	}
}

// sumsFrom reads n float32 sums from the bytes of b, cycled (zeros for an
// empty b): arbitrary bit patterns, NaN payloads included.
func sumsFrom(b []byte, n int) []float32 {
	out := make([]float32, n)
	if len(b) == 0 {
		return out
	}
	var w [4]byte
	for i := range out {
		for j := range w {
			w[j] = b[(4*i+j)%len(b)]
		}
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(w[:]))
	}
	return out
}

// FuzzDecompressAddInto is DecompressAddInto against DecompressInto on any
// container and any sums: the same typed error, or the two-pass result bit
// for bit, in place and disjoint, at the suite's level and on the portable
// decoder. A container with a flag set must fail. The golden containers
// seed it, and a flagged copy of the long one.
func FuzzDecompressAddInto(f *testing.F) {
	for _, v := range goldenVectors() {
		comp, err := os.ReadFile(filepath.Join("testdata", "golden", v.name+".bin"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(comp, []byte{0x01, 0x00, 0xc0, 0x7f, 0, 0, 0x80, 0xbf})
	}
	long, err := Compress(smoothField(4097, 9), Params{ErrorBound: 1e-3, Threads: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(long, []byte{0x45, 0x23, 0xc1, 0xff, 0, 0, 0, 0x80, 1, 0, 0, 0})
	flagged := append([]byte(nil), long...)
	flagged[5] = 0x01
	f.Add(flagged, []byte{0x01, 0x00, 0xc0, 0x7f})
	f.Fuzz(func(t *testing.T, comp, raw []byte) {
		h, herr := ParseHeader(comp)
		if herr == nil && h.DataLen > 1<<20 {
			return // too large to be worth a fuzz case
		}
		n := h.DataLen
		dec := make([]float32, n)
		derr := DecompressInto(comp, dec)
		if len(comp) > 5 && comp[5] != 0 && derr == nil {
			t.Fatalf("a container with flags 0x%02x decoded", comp[5])
		}
		sums := sumsFrom(raw, n)
		for _, l := range []simd.Level{level, simd.Portable} {
			withPath(l, func() {
				dst := make([]float32, n)
				err := DecompressAddInto(comp, sums, dst)
				acc := append([]float32(nil), sums...)
				ierr := DecompressAddInto(comp, acc, acc)
				if (derr == nil) != (err == nil) || (derr == nil) != (ierr == nil) {
					t.Fatalf("level %v: DecompressInto err %v, DecompressAddInto %v, in place %v", l, derr, err, ierr)
				}
				if derr != nil {
					if err.Error() != derr.Error() || ierr.Error() != derr.Error() {
						t.Fatalf("level %v: errors differ: %v / %v / %v", l, derr, err, ierr)
					}
					return
				}
				want := make([]float32, n)
				for i := range want {
					want[i] = sums[i] + dec[i]
				}
				if !sameBits(dst, want) || !sameBits(acc, want) {
					t.Fatalf("level %v: fused decode differs from DecompressInto + add", l)
				}
			})
		}
	})
}
