package fzlight

// Tests for the allocation-free Into API: CompressInto must be a
// byte-for-byte drop-in for Compress, the lite header must round-trip,
// and the single-chunk steady state (the configuration the ring
// collectives run) must not allocate at all.

import (
	"bytes"
	"errors"
	"testing"
)

// CompressInto writing at the front of a CompressBound buffer must produce
// exactly the container Compress allocates, for every chunking/blocking
// configuration (single- and multi-chunk paths diverge internally).
func TestCompressIntoMatchesCompress(t *testing.T) {
	for _, n := range []int{0, 1, 31, 32, 1000, 4097} {
		for _, threads := range []int{1, 3, 8} {
			for _, bs := range []int{32, 13} {
				data := smoothField(n, int64(n)+1)
				p := Params{ErrorBound: 1e-3, Threads: threads, BlockSize: bs}
				want, err := Compress(data, p)
				if err != nil {
					t.Fatalf("Compress(n=%d,t=%d,bs=%d): %v", n, threads, bs, err)
				}
				dst := make([]byte, CompressBound(len(data), p))
				m, err := CompressInto(dst, data, p)
				if err != nil {
					t.Fatalf("CompressInto(n=%d,t=%d,bs=%d): %v", n, threads, bs, err)
				}
				if !bytes.Equal(dst[:m], want) {
					t.Fatalf("n=%d t=%d bs=%d: CompressInto output differs from Compress (%d vs %d bytes)",
						n, threads, bs, m, len(want))
				}
			}
		}
	}
}

// The float64 variant must match Compress64 the same way.
func TestCompressInto64MatchesCompress64(t *testing.T) {
	data := make([]float64, 1000)
	f32 := smoothField(len(data), 7)
	for i := range data {
		data[i] = float64(f32[i])
	}
	p := Params{ErrorBound: 1e-3, Threads: 4}
	want, err := Compress64(data, p)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, CompressBound(len(data), p))
	m, err := CompressInto64(dst, data, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst[:m], want) {
		t.Fatalf("CompressInto64 output differs from Compress64 (%d vs %d bytes)", m, len(want))
	}
}

// A destination below CompressBound must be rejected with ErrShortOutput
// before any bytes are written.
func TestCompressIntoShortOutput(t *testing.T) {
	data := smoothField(1000, 3)
	p := Params{ErrorBound: 1e-3}
	dst := make([]byte, CompressBound(len(data), p)-1)
	if _, err := CompressInto(dst, data, p); !errors.Is(err, ErrShortOutput) {
		t.Fatalf("short dst: got %v, want ErrShortOutput", err)
	}
}

// The lite header parsed from a real container must agree with the
// marshal side, and re-marshalling it must reproduce the fixed header.
func TestHeaderLiteRoundTrip(t *testing.T) {
	data := smoothField(4097, 5)
	p := Params{ErrorBound: 1e-3, Threads: 3}
	comp, err := Compress(data, p)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ParseHeaderLite(comp)
	if err != nil {
		t.Fatal(err)
	}
	want := HeaderLite{ErrorBound: 1e-3, BlockSize: DefaultBlockSize, NumChunks: 3, DataLen: 4097}
	if h != want {
		t.Fatalf("ParseHeaderLite = %+v, want %+v", h, want)
	}
	// Payload bytes must be fully covered by the chunk size table.
	total := 0
	for i := 0; i < h.NumChunks; i++ {
		total += h.ChunkSize(comp, i)
	}
	if h.PayloadStart()+total != len(comp) {
		t.Fatalf("size table covers %d payload bytes, container has %d",
			total, len(comp)-h.PayloadStart())
	}
	dst := make([]byte, h.PayloadStart())
	MarshalHeaderLite(dst, h)
	for i := 0; i < h.NumChunks; i++ {
		PutChunkSize(dst, i, h.ChunkSize(comp, i))
	}
	if !bytes.Equal(dst, comp[:h.PayloadStart()]) {
		t.Fatal("MarshalHeaderLite does not reproduce the container header")
	}
}

// The lite parser is 1D-only: 2D containers must fail with ErrBadVersion
// so callers can fall back to the allocating path.
func TestHeaderLiteRejects2D(t *testing.T) {
	data := smoothField(64*64, 6)
	comp, err := Compress2D(data, 64, 64, Params{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseHeaderLite(comp); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("2D container: got %v, want ErrBadVersion", err)
	}
}

// The single-chunk steady state — the configuration every ring collective
// runs per block — must not allocate once the scratch pools are warm.
func TestCompressIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	data := smoothField(1<<14, 8)
	p := Params{ErrorBound: 1e-3}
	dst := make([]byte, CompressBound(len(data), p))
	// Warm the pools (first call may miss and allocate the scratch).
	for i := 0; i < 4; i++ {
		if _, err := CompressInto(dst, data, p); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := CompressInto(dst, data, p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state CompressInto allocates %v objects/op, want 0", allocs)
	}
}

// So must the matching decode: header on the stack, no closure, no
// per-chunk tables.
func TestDecompressIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	data := smoothField(1<<14, 8)
	comp, err := Compress(data, Params{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float32, len(data))
	for i := 0; i < 4; i++ {
		if err := DecompressInto(comp, out); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecompressInto(comp, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state DecompressInto allocates %v objects/op, want 0", allocs)
	}
}
