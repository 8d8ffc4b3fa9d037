package szx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func ramp(n int, slope float64) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(slope * float64(i))
	}
	return out
}

func maxAbsErr(a, b []float32) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(float64(a[i]) - float64(b[i])); d > m {
			m = d
		}
	}
	return m
}

func TestRoundTripErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]float32, 10000)
	for i := range data {
		data[i] = float32(math.Sin(float64(i)*0.001) + rng.NormFloat64()*0.01)
	}
	for _, eb := range []float64{1e-1, 1e-2, 1e-3} {
		comp, err := Compress(data, Params{ErrorBound: eb})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decompress(comp)
		if err != nil {
			t.Fatal(err)
		}
		if m := maxAbsErr(data, got); m > eb*(1+1e-6) {
			t.Fatalf("eb=%g: max err %g", eb, m)
		}
	}
}

func TestConstantBlocks(t *testing.T) {
	// A slow ramp where every 128-block spans less than 2eb: all constant.
	data := ramp(1280, 1e-4)
	comp, err := Compress(data, Params{ErrorBound: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	frac, err := ConstantFraction(comp)
	if err != nil {
		t.Fatal(err)
	}
	if frac != 1 {
		t.Fatalf("constant fraction %g, want 1", frac)
	}
	// ~5 bytes per 128-value block
	if len(comp) > 24+10*5+8 {
		t.Fatalf("compressed to %d bytes", len(comp))
	}
	// Staircase artifact: the reconstruction has exactly one value per block.
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 10; b++ {
		v := got[b*128]
		for i := b * 128; i < (b+1)*128; i++ {
			if got[i] != v {
				t.Fatalf("block %d not constant", b)
			}
		}
	}
}

func TestRawBlocksLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]float32, 4096)
	for i := range data {
		data[i] = rng.Float32() * 100 // far beyond any bound: raw blocks
	}
	comp, err := Compress(data, Params{ErrorBound: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	frac, _ := ConstantFraction(comp)
	if frac != 0 {
		t.Fatalf("noise should have no constant blocks, got %g", frac)
	}
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("raw block not lossless at %d", i)
		}
	}
}

func TestValidationAndCorruption(t *testing.T) {
	if _, err := Compress([]float32{1}, Params{}); !errors.Is(err, ErrBadParams) {
		t.Errorf("zero bound: %v", err)
	}
	if _, err := Compress([]float32{float32(math.NaN())}, Params{ErrorBound: 1}); !errors.Is(err, ErrNonFinite) {
		t.Errorf("NaN: %v", err)
	}
	comp, err := Compress(ramp(1000, 0.01), Params{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(comp[:10]); err == nil {
		t.Error("truncated header accepted")
	}
	if _, err := Decompress(comp[:len(comp)-2]); err == nil {
		t.Error("truncated payload accepted")
	}
	bad := append([]byte(nil), comp...)
	copy(bad, "WRNG")
	if _, err := Decompress(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
}

// The block size is capped at 65,535 in the compressor and in the header:
// one 5-byte constant block of a received stream must not make the
// decoder allocate up to 2^32 − 1 values.
func TestBlockSizeCapped(t *testing.T) {
	data := ramp(1000, 1e-5)
	if _, err := Compress(data, Params{ErrorBound: 1e-2, BlockSize: maxBlockSize + 1}); !errors.Is(err, ErrBadParams) {
		t.Errorf("Compress: got %v, want ErrBadParams", err)
	}
	comp, err := Compress(data, Params{ErrorBound: 1e-2, BlockSize: maxBlockSize})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if m := maxAbsErr(data, got); m > 1e-2 {
		t.Fatalf("block size %d: error %g", maxBlockSize, m)
	}
	for _, B := range []uint32{0, maxBlockSize + 1, math.MaxUint32} {
		bad := append([]byte(nil), comp...)
		binary.LittleEndian.PutUint32(bad[4:], B)
		if _, err := DataLen(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("block size %d: DataLen got %v, want ErrCorrupt", B, err)
		}
		if _, err := Decompress(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("block size %d: Decompress got %v, want ErrCorrupt", B, err)
		}
	}
}

// Every block costs at least five bytes, so a header may claim at most
// payload/5 × block size values; one more fails before the output is
// sized from it.
func TestDataLenRejectsUnbackedLength(t *testing.T) {
	comp, err := Compress(ramp(300, 1e-5), Params{ErrorBound: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	most := uint64(len(comp)-fixedHeader) / 5 * DefaultBlockSize
	bad := append([]byte(nil), comp...)
	binary.LittleEndian.PutUint64(bad[16:], most)
	if n, err := DataLen(bad); err != nil || n != int(most) {
		t.Fatalf("length %d: got %d, %v", most, n, err)
	}
	for _, n := range []uint64{most + 1, 1 << 40, math.MaxUint64} {
		binary.LittleEndian.PutUint64(bad[16:], n)
		if _, err := DataLen(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("length %d: DataLen got %v, want ErrCorrupt", n, err)
		}
		if _, err := Decompress(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("length %d: Decompress got %v, want ErrCorrupt", n, err)
		}
	}
}

// A stream's bound must be finite and positive, as the compressor
// requires of its own.
func TestHeaderBoundMustBeFinite(t *testing.T) {
	comp, err := Compress(ramp(300, 0.01), Params{ErrorBound: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	for _, eb := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		t.Run(fmt.Sprint(eb), func(t *testing.T) {
			bad := append([]byte(nil), comp...)
			binary.LittleEndian.PutUint64(bad[8:], math.Float64bits(eb))
			if _, err := DataLen(bad); !errors.Is(err, ErrCorrupt) {
				t.Errorf("DataLen: got %v, want ErrCorrupt", err)
			}
			if _, err := Decompress(bad); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Decompress: got %v, want ErrCorrupt", err)
			}
			if _, err := Compress([]float32{1}, Params{ErrorBound: eb}); !errors.Is(err, ErrBadParams) {
				t.Errorf("Compress: got %v, want ErrBadParams", err)
			}
		})
	}
}

func TestEmptyAndTail(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 129, 300} {
		data := ramp(n, 0.01)
		comp, err := Compress(data, Params{ErrorBound: 1e-2})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got, err := Decompress(comp)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: got %d", n, len(got))
		}
		if m := maxAbsErr(data, got); m > 1e-2*(1+1e-6) {
			t.Fatalf("n=%d: err %g", n, m)
		}
	}
}

func TestPropertyBound(t *testing.T) {
	f := func(raw []float32, ebSeed uint8) bool {
		eb := []float64{1e-1, 1e-2}[ebSeed%2]
		clean := raw[:0:0]
		for _, v := range raw {
			f64 := float64(v)
			if !math.IsNaN(f64) && !math.IsInf(f64, 0) && math.Abs(f64) < 1e6 {
				clean = append(clean, v)
			}
		}
		comp, err := Compress(clean, Params{ErrorBound: eb})
		if err != nil {
			return false
		}
		got, err := Decompress(comp)
		if err != nil {
			return false
		}
		return maxAbsErr(clean, got) <= eb*(1+1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecompress feeds arbitrary bytes to the decoder. It must fail with
// one of the package's errors, or decode at most BlockSize values per five
// input bytes (a constant block costs five), so that nothing is allocated
// from a length the stream cannot back; a header that legally claims more
// than 2^20 values is checked but not decoded. What it decodes must
// round-trip: compressed again at the stream's own bound and block size,
// it decodes within that bound, unless the values are not finite.
func FuzzDecompress(f *testing.F) {
	for _, data := range [][]float32{ramp(300, 0.01), ramp(200, 1), nil} {
		comp, err := Compress(data, Params{ErrorBound: 1e-2})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(comp)
	}
	f.Add([]byte(magic))
	f.Fuzz(func(t *testing.T, b []byte) {
		if n, err := DataLen(b); err == nil {
			if B := int(binary.LittleEndian.Uint32(b[4:])); n > len(b)/5*B {
				t.Fatalf("implausible expansion: %d values from %d bytes", n, len(b))
			}
			if n > 1<<20 {
				return // a legal expansion, too large to be worth a fuzz case
			}
		}
		out, err := Decompress(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadMagic) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		B := int(binary.LittleEndian.Uint32(b[4:]))
		eb := math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
		comp, err := Compress(out, Params{ErrorBound: eb, BlockSize: B})
		if errors.Is(err, ErrNonFinite) {
			return
		}
		if err != nil {
			t.Fatalf("decoded values do not compress: %v", err)
		}
		back, err := Decompress(comp)
		if err != nil {
			t.Fatalf("recompressed stream does not decode: %v", err)
		}
		if d := maxAbsErr(out, back); d > eb {
			t.Fatalf("round trip error %g over bound %g", d, eb)
		}
	})
}
