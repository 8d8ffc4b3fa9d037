package crc32c

import (
	"fmt"
	"hash/crc32"
	"math/bits"
	"math/rand"
	"os"
	"testing"

	"hzccl/internal/simd"
	"hzccl/internal/simd/simdtest"
)

// TestMain runs the package's tests once with the folding kernel and once
// with hash/crc32 alone. Benchmarks and fuzzing sessions run once, as
// dispatched.
func TestMain(m *testing.M) {
	os.Exit(simdtest.Main(m, "crc32c", &level, simd.AVX512, simd.Portable))
}

// A -v run of this test logs the path this CPU selects, so a green run on
// a machine without VPCLMULQDQ says it did not run the kernel.
func TestLevelReportsThePath(t *testing.T) {
	t.Logf("this CPU's level is %v, VPCLMULQDQ %v (the kernel runs at AVX-512 with VPCLMULQDQ); the suite is running at %v",
		simd.CPU, simd.VPCLMULQDQ, level)
	if level > simd.CPU {
		t.Fatalf("running at %v above the CPU's %v", level, simd.CPU)
	}
}

// Every length from 0 to 4096 at every offset from 0 to 63 against
// hash/crc32's Castagnoli table: each fold stage, each tail length and
// every alignment of the loads.
func TestMatchesHashCRC32(t *testing.T) {
	buf := make([]byte, 4096+64)
	rand.New(rand.NewSource(1)).Read(buf)
	for off := 0; off < 64; off++ {
		for n := 0; n <= 4096; n++ {
			p := buf[off : off+n]
			if got, want := Checksum(p), crc32.Checksum(p, table); got != want {
				t.Fatalf("offset %d length %d: %08x, hash/crc32 %08x", off, n, got, want)
			}
		}
	}
}

// Update continues a sum: from any register, across any split, and over
// buffers longer than one kernel call.
func TestUpdateChains(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	buf := make([]byte, 3<<20+77)
	r.Read(buf)
	want := crc32.Checksum(buf, table)
	if got := Checksum(buf); got != want {
		t.Fatalf("%d bytes: %08x, hash/crc32 %08x", len(buf), got, want)
	}
	for i := 0; i < 200; i++ {
		s := r.Intn(len(buf) + 1)
		if i < 100 {
			s = r.Intn(5000)
		}
		if got := Update(Update(0, buf[:s]), buf[s:]); got != want {
			t.Fatalf("split at %d: %08x, hash/crc32 %08x", s, got, want)
		}
		init := r.Uint32()
		n := r.Intn(10000)
		if got, want := Update(init, buf[:n]), crc32.Update(init, table, buf[:n]); got != want {
			t.Fatalf("from %08x over %d bytes: %08x, hash/crc32 %08x", init, n, got, want)
		}
	}
}

// The kernel's constants are k(e) = bitrev32(x^e mod P) << 1 for the
// Castagnoli P, low k(D+32) and high k(D−32) for each fold distance D, the
// form in which the same formula gives hash/crc32's IEEE r2r1.
func TestFoldConstants(t *testing.T) {
	k := func(e int, poly uint32) uint64 {
		r := uint32(1) // x^0, then x^e mod (x^32 + poly), most significant bit first
		for range e {
			top := r >> 31
			r <<= 1
			if top != 0 {
				r ^= poly
			}
		}
		return uint64(bits.Reverse32(r)) << 1
	}
	if lo, hi := k(544, 0x04C11DB7), k(480, 0x04C11DB7); lo != 0x154442bd4 || hi != 0x1c6e41596 {
		t.Fatalf("IEEE r2r1 by the formula: %#x, %#x; hash/crc32 has 0x154442bd4, 0x1c6e41596", lo, hi)
	}
	var want [6]uint64
	for i, d := range []int{2048, 512, 128} {
		want[2*i], want[2*i+1] = k(d+32, 0x1EDC6F41), k(d-32, 0x1EDC6F41)
	}
	if foldK != want {
		t.Fatalf("fold constants %#x, want %#x", foldK, want)
	}
}

// FuzzUpdate holds a sum split anywhere to hash/crc32's.
func FuzzUpdate(f *testing.F) {
	f.Add(make([]byte, 256), int64(0))
	f.Add(make([]byte, 1000), int64(300))
	f.Fuzz(func(t *testing.T, data []byte, split int64) {
		s := int(uint64(split) % uint64(len(data)+1))
		want := crc32.Checksum(data, table)
		if got := Update(Update(0, data[:s]), data[s:]); got != want {
			t.Fatalf("%d bytes split at %d: %08x, hash/crc32 %08x", len(data), s, got, want)
		}
	})
}

// BenchmarkChecksum reports the throughput of Checksum at frame and block
// sizes, at the CPU's level.
func BenchmarkChecksum(b *testing.B) {
	for _, n := range []int{64, 1 << 10, 16 << 10, 512 << 10, 2 << 20} {
		buf := make([]byte, n)
		rand.New(rand.NewSource(3)).Read(buf)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				Checksum(buf)
			}
		})
	}
}
