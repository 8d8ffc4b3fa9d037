package fzlight_test

import (
	"errors"
	"testing"

	"hzccl/internal/fzlight"
	"hzccl/internal/hzdyn"
)

// The flags byte (offset 5) is reserved as 0. A container with any flag
// set, such as the float64 bit of earlier builds, must fail typed in the
// header parser and in everything that reads a container through it: it
// must never decode, or reduce, as float32 values.
func TestNonzeroFlagsRejected(t *testing.T) {
	data := make([]float32, 96)
	for i := range data {
		data[i] = float32(i%7) - 3
	}
	p := fzlight.Params{ErrorBound: 1e-3}
	oneD, err := fzlight.Compress(data, p)
	if err != nil {
		t.Fatal(err)
	}
	twoD, err := fzlight.Compress2D(data, 8, 12, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, good := range [][]byte{oneD, twoD} {
		if _, err := fzlight.ParseHeader(good); err != nil {
			t.Fatalf("flags 0: %v", err)
		}
		for _, flags := range []byte{0x01, 0x80} {
			bad := append([]byte(nil), good...)
			bad[5] = flags
			wantBad := func(op string, err error) {
				t.Helper()
				if !errors.Is(err, fzlight.ErrBadVersion) {
					t.Errorf("flags 0x%02x: %s: got %v, want ErrBadVersion", flags, op, err)
				}
			}
			_, err := fzlight.ParseHeader(bad)
			wantBad("ParseHeader", err)
			_, err = fzlight.Decompress(bad)
			wantBad("Decompress", err)
			wantBad("DecompressInto", fzlight.DecompressInto(bad, make([]float32, len(data))))
			sums := make([]float32, len(data))
			wantBad("DecompressAddInto", fzlight.DecompressAddInto(bad, sums, sums))
			_, _, err = hzdyn.Add(bad, good)
			wantBad("hzdyn.Add, left", err)
			_, _, err = hzdyn.Add(good, bad)
			wantBad("hzdyn.Add, right", err)
			_, _, err = hzdyn.AddInto(make([]byte, hzdyn.AddBound(len(bad), len(bad))), bad, bad)
			wantBad("hzdyn.AddInto", err)
		}
	}
}
