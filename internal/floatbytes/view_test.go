package floatbytes

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"
)

// checkWire compares Wire, Load and Checksum as this build dispatches
// them with the portable staging path — what a big-endian build runs,
// compiled everywhere so that this test can drive it. On a little-endian
// build the dispatched side is a view of the floats' own memory, so equal
// bytes here is the statement "the wire format of a float32 block is its
// memory".
func checkWire(t *testing.T, what string, vals []float32) {
	t.Helper()
	want := Bytes(vals)
	if len(want) != 4*len(vals) {
		t.Fatalf("%s: portable staging gave %d bytes for %d floats", what, len(want), len(vals))
	}
	if got := Wire(vals); !bytes.Equal(got, want) {
		t.Fatalf("%s: Wire differs from portable staging", what)
	}
	sum := crc32.Checksum(want, crc32.MakeTable(crc32.Castagnoli))
	if got, ref := Checksum(vals), checksumPortable(vals); got != sum || ref != sum {
		t.Fatalf("%s: Checksum %08x, portable %08x, crc32c of the staged bytes %08x", what, got, ref, sum)
	}
	loaded, ref := make([]float32, len(vals)), make([]float32, len(vals))
	Load(loaded, want)
	ToFloat32(ref, want)
	for i, v := range vals {
		if a, b, c := math.Float32bits(loaded[i]), math.Float32bits(ref[i]), math.Float32bits(v); a != c || b != c {
			t.Fatalf("%s: at %d Load gave %08x, ToFloat32 %08x, staged was %08x", what, i, a, b, c)
		}
	}
}

// TestWireMatchesPortableStaging sweeps every length 0–67 (empty, the word
// and unrolled-iteration boundaries, odd tails) at every float offset 0–3
// into the backing array, on vectors cycling through the special bit
// patterns, then TestSpecialPairs' vector: every special next to every other.
func TestWireMatchesPortableStaging(t *testing.T) {
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			back := make([]float32, off+n+3)
			for i := range back {
				back[i] = math.Float32frombits(specials[(i+n)%len(specials)])
			}
			checkWire(t, "cycled specials", back[off:off+n])
		}
	}
	var pairs []float32
	for _, a := range specials {
		for _, b := range specials {
			pairs = append(pairs, math.Float32frombits(a), math.Float32frombits(b))
		}
	}
	checkWire(t, "special pairs", pairs)
	checkWire(t, "special pairs, odd offset", pairs[1:])
}

// TestChecksumLongVector crosses the portable loop's 4 KiB encode buffer
// several times at a length that is not a multiple of it, and pins what the
// digest helper allocates: nothing where it reads the floats in place, that
// one fixed buffer (never 4·len bytes) where it cannot.
func TestChecksumLongVector(t *testing.T) {
	vals := make([]float32, 5*1024+77)
	for i := range vals {
		vals[i] = float32(i)*0.37 - 900
	}
	checkWire(t, "long vector", vals)
	want := 1.0
	if binary.NativeEndian.Uint16([]byte{1, 0}) == 1 {
		want = 0
	}
	if n := testing.AllocsPerRun(20, func() { Checksum(vals) }); n > want {
		t.Fatalf("Checksum allocates %v times per call, want ≤ %v", n, want)
	}
	if n := testing.AllocsPerRun(20, func() { checksumPortable(vals) }); n > 1 {
		t.Fatalf("checksumPortable allocates %v times per call, want ≤ 1", n)
	}
}
