package floatbytes

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	vals := []float32{0, 1, -1, 3.14, -2.5e-7, 1e20, float32(math.Inf(1)), float32(math.NaN())}
	buf := Bytes(vals)
	if len(buf) != 4*len(vals) {
		t.Fatalf("encoded %d bytes, want %d", len(buf), 4*len(vals))
	}
	got := Floats(buf)
	for i := range vals {
		a, b := math.Float32bits(vals[i]), math.Float32bits(got[i])
		if a != b {
			t.Fatalf("bit mismatch at %d: %x vs %x", i, a, b)
		}
	}
}

func TestInPlaceVariants(t *testing.T) {
	vals := []float32{1, 2, 3}
	buf := make([]byte, 12)
	if n := FromFloat32(buf, vals); n != 12 {
		t.Fatalf("wrote %d", n)
	}
	out := make([]float32, 3)
	if n := ToFloat32(out, buf); n != 3 {
		t.Fatalf("decoded %d", n)
	}
	for i := range vals {
		if out[i] != vals[i] {
			t.Fatal("mismatch")
		}
	}
}

func TestTrailingBytesIgnored(t *testing.T) {
	buf := append(Bytes([]float32{7}), 0xAA, 0xBB)
	got := Floats(buf)
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("got %v", got)
	}
}

func TestEmpty(t *testing.T) {
	if len(Bytes(nil)) != 0 || len(Floats(nil)) != 0 {
		t.Fatal("empty round trip failed")
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(vals []float32) bool {
		got := Floats(Bytes(vals))
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if math.Float32bits(got[i]) != math.Float32bits(vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Scalar references: the one-float-at-a-time loops the word-wise
// FromFloat32 / ToFloat32 / AddInto replaced. Every test below requires the
// production loops to be bit-identical to these.

func refFrom(dst []byte, src []float32) {
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

func refTo(dst []float32, src []byte) {
	for i := 0; i < len(src)/4; i++ {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// refAddInto is the two-pass form AddInto fuses: decode, then dst[i] += v.
func refAddInto(dst []float32, src []byte) {
	vals := make([]float32, len(src)/4)
	refTo(vals, src)
	for i, v := range vals {
		dst[i] += v
	}
}

// specials are the float32 bit patterns a serializer or a fused add could
// plausibly mangle: quiet and signalling NaNs with payloads, both zeros,
// denormals, infinities and the extremes.
var specials = []uint32{
	0x7fc00000, 0x7fc00001, 0xffc12345, 0x7fa00000, 0xff800001, // NaNs
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x807fffff, 0x00400000, // denormals
	0x7f800000, 0xff800000, // ±Inf
	0x7f7fffff, 0xff7fffff, 0x00800000, // ±max, min normal
	0x3f800000, 0xbf800000, 0x40490fdb,
}

const guard = 0xA5

// checkAgainstRef runs all three primitives on src (wire bytes) and acc
// (accumulator contents) placed at byte offset srcOff and float offset
// dstOff inside guarded backing arrays, and compares every output bit —
// and every guard byte around it — with the scalar reference.
func checkAgainstRef(t *testing.T, src []byte, acc []float32, srcOff, dstOff int) {
	t.Helper()
	n := len(src) / 4
	if len(acc) < n {
		n = len(acc)
		src = src[:4*n+len(src)%4] // keep the trailing partial float
	}
	acc = acc[:n]

	srcBack := make([]byte, srcOff+len(src)+8)
	for i := range srcBack {
		srcBack[i] = guard
	}
	s := srcBack[srcOff : srcOff+len(src)]
	copy(s, src)

	newDst := func() (back, d []float32) {
		back = make([]float32, dstOff+n+8)
		for i := range back {
			back[i] = math.Float32frombits(0xA5A5A5A5)
		}
		d = back[dstOff : dstOff+n]
		copy(d, acc)
		return back, d
	}
	sameFloats := func(what string, got, want []float32) {
		t.Helper()
		for i := range want {
			if a, b := math.Float32bits(got[i]), math.Float32bits(want[i]); a != b {
				t.Fatalf("%s: n=%d srcOff=%d dstOff=%d: bits differ at %d: %08x vs reference %08x",
					what, n, srcOff, dstOff, i-dstOff, a, b)
			}
		}
	}

	gotBack, got := newDst()
	wantBack, want := newDst()
	AddInto(got, s)
	refAddInto(want, s)
	sameFloats("AddInto", gotBack, wantBack)

	gotBack, got = newDst()
	wantBack, want = newDst()
	if m := ToFloat32(got, s); m != n {
		t.Fatalf("ToFloat32 decoded %d values, want %d", m, n)
	}
	refTo(want, s)
	sameFloats("ToFloat32", gotBack, wantBack)

	// Encode the decoded values back at the same byte offset.
	gotBytes := make([]byte, srcOff+4*n+8)
	wantBytes := make([]byte, len(gotBytes))
	for i := range gotBytes {
		gotBytes[i], wantBytes[i] = guard, guard
	}
	if m := FromFloat32(gotBytes[srcOff:srcOff+4*n], want); m != 4*n {
		t.Fatalf("FromFloat32 wrote %d bytes, want %d", m, 4*n)
	}
	refFrom(wantBytes[srcOff:], want)
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("FromFloat32: n=%d off=%d: bytes differ from reference", n, srcOff)
	}
	if !bytes.Equal(gotBytes[srcOff:srcOff+4*n], s[:4*n]) {
		t.Fatalf("FromFloat32(ToFloat32(x)) != x at n=%d off=%d", n, srcOff)
	}
	for i, b := range srcBack {
		if (i < srcOff || i >= srcOff+len(src)) && b != guard {
			t.Fatalf("source guard byte %d overwritten", i)
		}
	}
}

// TestWordwiseMatchesScalar sweeps element counts around the 2-float word
// and 8-float iteration boundaries (odd counts and empty included) × every
// source byte offset and destination float offset 0–7, on inputs that
// cycle through the special bit patterns on both sides of the add.
func TestWordwiseMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 257} {
		src := make([]byte, 4*n)
		acc := make([]float32, n)
		for i := 0; i < n; i++ {
			a, b := specials[(i+n)%len(specials)], specials[(i*7+3)%len(specials)]
			if i%3 == 0 {
				a, b = rng.Uint32(), rng.Uint32()
			}
			binary.LittleEndian.PutUint32(src[4*i:], a)
			acc[i] = math.Float32frombits(b)
		}
		for srcOff := 0; srcOff < 8; srcOff++ {
			for dstOff := 0; dstOff < 8; dstOff++ {
				checkAgainstRef(t, src, acc, srcOff, dstOff)
			}
		}
		// A trailing partial float is ignored, never read as a value.
		checkAgainstRef(t, append(append([]byte{}, src...), 1, 2, 3), acc, 1, 1)
	}
}

// TestSpecialPairs adds every special pattern to every other, in a vector
// long enough to go through the unrolled loop and the tail.
func TestSpecialPairs(t *testing.T) {
	k := len(specials)
	src := make([]byte, 4*k*k)
	acc := make([]float32, k*k)
	for i, a := range specials {
		for j, b := range specials {
			binary.LittleEndian.PutUint32(src[4*(i*k+j):], a)
			acc[i*k+j] = math.Float32frombits(b)
		}
	}
	checkAgainstRef(t, src, acc, 0, 0)
	checkAgainstRef(t, src[4:], acc[1:], 3, 5)
}

func TestPropertyWordwiseMatchesScalar(t *testing.T) {
	f := func(src []byte, accBits []uint32, off uint8) bool {
		acc := make([]float32, len(accBits))
		for i, b := range accBits {
			acc[i] = math.Float32frombits(b)
		}
		checkAgainstRef(t, src, acc, int(off&7), int(off>>3&7))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzAddInto feeds arbitrary wire bytes, accumulator bits and slice
// offsets through all three primitives against the scalar reference.
// Seeds live in testdata/fuzz/FuzzAddInto and replay under `go test`.
func FuzzAddInto(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(0))
	f.Add([]byte{0, 0, 0x80, 0x3f, 1, 2, 3}, []byte{0, 0, 0x80, 0x7f}, uint8(9))
	f.Fuzz(func(t *testing.T, src, accBytes []byte, off uint8) {
		acc := make([]float32, len(accBytes)/4)
		refTo(acc, accBytes)
		checkAgainstRef(t, src, acc, int(off&7), int(off>>3&7))
	})
}

func benchData(n int) ([]float32, []byte) {
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i) * 0.25
	}
	return vals, Bytes(vals)
}

// The block a ring step moves on the 8 MiB/rank, 4-rank benchmark workload.
const benchBlock = 1 << 19

func BenchmarkFromFloat32(b *testing.B) {
	vals, buf := benchData(benchBlock)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		FromFloat32(buf, vals)
	}
}

func BenchmarkToFloat32(b *testing.B) {
	vals, buf := benchData(benchBlock)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		ToFloat32(vals, buf)
	}
}

func BenchmarkAddInto(b *testing.B) {
	vals, buf := benchData(benchBlock)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		AddInto(vals, buf)
	}
}
