package ompszp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func smooth(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	v := 0.0
	for i := range out {
		v += rng.NormFloat64() * 0.01
		out[i] = float32(math.Sin(float64(i)*0.01) + v)
	}
	return out
}

func maxAbsErr(a, b []float32) float64 {
	m := 0.0
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func tol(eb float64, data []float32) float64 {
	maxAbs := 0.0
	for _, v := range data {
		if a := math.Abs(float64(v)); a > maxAbs {
			maxAbs = a
		}
	}
	// float32 quantization arithmetic costs a few extra ulps vs fzlight
	return eb*(1+1e-5) + maxAbs*1e-6
}

func TestRoundTrip(t *testing.T) {
	data := smooth(10000, 1)
	for _, eb := range []float64{1e-1, 1e-2, 1e-3, 1e-4} {
		for _, threads := range []int{1, 4} {
			for _, bs := range []int{32, 16, 50} {
				comp, err := Compress(data, Params{ErrorBound: eb, BlockSize: bs, Threads: threads})
				if err != nil {
					t.Fatalf("eb=%g: %v", eb, err)
				}
				h, err := ParseHeader(comp)
				if err != nil {
					t.Fatal(err)
				}
				got, err := DecompressThreads(comp, h, threads)
				if err != nil {
					t.Fatal(err)
				}
				if m := maxAbsErr(data, got); m > tol(eb, data) {
					t.Fatalf("eb=%g bs=%d: err %g", eb, bs, m)
				}
			}
		}
	}
}

func TestZeroBlockElision(t *testing.T) {
	// Half zeros, half signal: zero blocks cost 1 byte each.
	n := 8192
	data := make([]float32, n)
	sig := smooth(n/2, 2)
	copy(data[n/2:], sig)
	comp, err := Compress(data, Params{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n/2; i++ {
		if got[i] != 0 {
			t.Fatalf("zero block not reconstructed exactly at %d: %v", i, got[i])
		}
	}
	if m := maxAbsErr(data, got); m > tol(1e-3, data) {
		t.Fatalf("err %g", m)
	}
	// All-zero input compresses to ~1 byte per block.
	zeros := make([]float32, n)
	zcomp, err := Compress(zeros, Params{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if len(zcomp) > fixedHeader+n/DefaultBlockSize+8 {
		t.Fatalf("all-zero input compressed to %d bytes", len(zcomp))
	}
}

func TestThreadsDontChangeOutput(t *testing.T) {
	data := smooth(5003, 3)
	a, err := Compress(data, Params{ErrorBound: 1e-3, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compress(data, Params{ErrorBound: 1e-3, Threads: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("thread count changed output size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("thread count changed output at byte %d", i)
		}
	}
}

func TestParamAndInputValidation(t *testing.T) {
	if _, err := Compress([]float32{1}, Params{ErrorBound: 0}); !errors.Is(err, ErrBadParams) {
		t.Errorf("want ErrBadParams, got %v", err)
	}
	if _, err := Compress([]float32{float32(math.NaN())}, Params{ErrorBound: 1e-3}); !errors.Is(err, ErrNonFinite) {
		t.Errorf("want ErrNonFinite, got %v", err)
	}
	if _, err := Compress([]float32{1e9}, Params{ErrorBound: 1e-9}); !errors.Is(err, ErrRange) {
		t.Errorf("want ErrRange, got %v", err)
	}
}

func TestCorruptStreams(t *testing.T) {
	data := smooth(1000, 4)
	comp, err := Compress(data, Params{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(comp[:10]); err == nil {
		t.Error("truncated header accepted")
	}
	if _, err := Decompress(comp[:len(comp)-3]); err == nil {
		t.Error("truncated payload accepted")
	}
	bad := append([]byte(nil), comp...)
	copy(bad, "NOPE")
	if _, err := Decompress(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: got %v", err)
	}
}

// A block size the header's 16-bit field cannot hold is rejected before
// anything is written: it used to be truncated into a stream that did not
// decode (65,536 became 0), and a negative one panicked sizing dst.
func TestBlockSizeMustFitHeader(t *testing.T) {
	data := smooth(1000, 8)
	for _, bs := range []int{-1, maxBlockSize + 1, maxBlockSize + 2} {
		t.Run(fmt.Sprint(bs), func(t *testing.T) {
			p := Params{ErrorBound: 1e-3, BlockSize: bs}
			if _, err := Compress(data, p); !errors.Is(err, ErrBadParams) {
				t.Errorf("Compress: got %v, want ErrBadParams", err)
			}
			dst := make([]byte, CompressBound(len(data), Params{ErrorBound: 1e-3}))
			if _, err := CompressInto(dst, data, p); !errors.Is(err, ErrBadParams) {
				t.Errorf("CompressInto: got %v, want ErrBadParams", err)
			}
		})
	}
	comp, err := Compress(data, Params{ErrorBound: 1e-3, BlockSize: maxBlockSize})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsErr(data, got); d > tol(1e-3, data) {
		t.Fatalf("block size %d: error %g", maxBlockSize, d)
	}
}

// Every block costs at least its marker byte, so a header may claim at
// most payload × block size values; one more fails before the output is
// sized from it.
func TestParseHeaderRejectsUnbackedLength(t *testing.T) {
	comp, err := Compress(smooth(100, 9), Params{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	most := uint64(len(comp)-fixedHeader) * DefaultBlockSize
	bad := append([]byte(nil), comp...)
	binary.LittleEndian.PutUint64(bad[16:], most)
	if h, err := ParseHeader(bad); err != nil || h.DataLen != int(most) {
		t.Fatalf("length %d: %v", most, err)
	}
	for _, n := range []uint64{most + 1, 1 << 40, math.MaxUint64} {
		binary.LittleEndian.PutUint64(bad[16:], n)
		if _, err := ParseHeader(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("length %d: ParseHeader got %v, want ErrCorrupt", n, err)
		}
		if _, err := Decompress(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("length %d: Decompress got %v, want ErrCorrupt", n, err)
		}
	}
}

// The decoder scales by 2·eb, so a bound that is not positive, or whose
// double is not finite, fails in the header and in the compressor.
func TestBoundMustDoubleFinitely(t *testing.T) {
	data := smooth(100, 10)
	comp, err := Compress(data, Params{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	for _, eb := range []float64{0, -1, math.NaN(), math.Inf(1), math.MaxFloat64} {
		t.Run(fmt.Sprint(eb), func(t *testing.T) {
			bad := append([]byte(nil), comp...)
			binary.LittleEndian.PutUint64(bad[8:], math.Float64bits(eb))
			if _, err := ParseHeader(bad); !errors.Is(err, ErrCorrupt) {
				t.Errorf("ParseHeader: got %v, want ErrCorrupt", err)
			}
			if _, err := Decompress(bad); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Decompress: got %v, want ErrCorrupt", err)
			}
			if _, err := Compress(data, Params{ErrorBound: eb}); !errors.Is(err, ErrBadParams) {
				t.Errorf("Compress: got %v, want ErrBadParams", err)
			}
		})
	}
}

func TestEmptyInput(t *testing.T) {
	comp, err := Compress(nil, Params{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d elements", len(got))
	}
}

// ompSZp stores one outlier per small block; fZ-light stores one per
// chunk. On smooth high-ratio data ompSZp must therefore be measurably
// larger — this is the paper's Table III ratio gap.
func TestPerBlockOutlierOverhead(t *testing.T) {
	n := 1 << 16
	data := make([]float32, n) // constant zero-free value => all-constant blocks
	for i := range data {
		data[i] = 3.5
	}
	comp, err := Compress(data, Params{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	// marker+outlier = 5 bytes per 32-element block
	want := fixedHeader + (n/DefaultBlockSize)*5
	if len(comp) != want {
		t.Fatalf("constant blocks: %d bytes, want %d", len(comp), want)
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(raw []float32, ebSeed uint8) bool {
		eb := []float64{1e-1, 1e-2, 1e-3}[ebSeed%3]
		clean := make([]float32, 0, len(raw))
		for _, v := range raw {
			f64 := float64(v)
			if math.IsNaN(f64) || math.IsInf(f64, 0) || math.Abs(f64) > 1e3 {
				continue
			}
			clean = append(clean, v)
		}
		comp, err := Compress(clean, Params{ErrorBound: eb, Threads: 2})
		if err != nil {
			return false
		}
		got, err := Decompress(comp)
		if err != nil {
			return false
		}
		return maxAbsErr(clean, got) <= tol(eb, clean)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecompress feeds arbitrary bytes to the decoder. It must fail with
// one of the package's errors, or decode at most BlockSize values per
// input byte (a zero block costs one), so that nothing is allocated from a
// length the stream cannot back; a header that legally claims more than
// 2^20 values is checked but not decoded. What it decodes must round-trip:
// compressed again at the stream's own bound and block size, it decodes
// within that bound, unless the compressor refuses the values as out of
// range or not finite.
func FuzzDecompress(f *testing.F) {
	for _, data := range [][]float32{smooth(100, 7), make([]float32, 70), nil} {
		comp, err := Compress(data, Params{ErrorBound: 1e-3})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(comp)
	}
	f.Add([]byte(magic))
	f.Fuzz(func(t *testing.T, b []byte) {
		if h, err := ParseHeader(b); err == nil {
			if h.DataLen > len(b)*h.BlockSize {
				t.Fatalf("implausible expansion: %d values from %d bytes", h.DataLen, len(b))
			}
			if h.DataLen > 1<<20 {
				return // a legal expansion, too large to be worth a fuzz case
			}
		}
		out, err := Decompress(b)
		if err != nil {
			for _, e := range []error{ErrCorrupt, ErrBadMagic, ErrBadVersion} {
				if errors.Is(err, e) {
					return
				}
			}
			t.Fatalf("untyped error: %v", err)
		}
		h, err := ParseHeader(b)
		if err != nil {
			t.Fatalf("decoded a stream whose header fails: %v", err)
		}
		comp, err := Compress(out, Params{ErrorBound: h.ErrorBound, BlockSize: h.BlockSize})
		if errors.Is(err, ErrRange) || errors.Is(err, ErrNonFinite) {
			return
		}
		if err != nil {
			t.Fatalf("decoded values do not compress: %v", err)
		}
		back, err := Decompress(comp)
		if err != nil {
			t.Fatalf("recompressed stream does not decode: %v", err)
		}
		if d := maxAbsErr(out, back); d > tol(h.ErrorBound, out) {
			t.Fatalf("round trip error %g over bound %g", d, h.ErrorBound)
		}
	})
}
