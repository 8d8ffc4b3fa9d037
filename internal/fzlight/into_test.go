package fzlight

// Tests for the allocation-free Into API: CompressInto must be a
// byte-for-byte drop-in for Compress, the header must round-trip,
// and the steady state must not allocate at all, in one chunk (the
// configuration the ring collectives run), in many, or split into
// segments.

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"hzccl/internal/telemetry"
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

// The header parsed from a real container of every layout must agree with
// the marshal side, and re-marshalling it must reproduce the container's
// header bytes, size table included.
func TestHeaderMarshalRoundTrip(t *testing.T) {
	p := Params{ErrorBound: 1e-3, Threads: 3}
	for _, tc := range []struct {
		name string
		comp func() ([]byte, error)
		want Header
	}{
		{"1d", func() ([]byte, error) { return Compress(smoothField(4097, 5), p) },
			Header{ErrorBound: 1e-3, BlockSize: DefaultBlockSize, NumChunks: 3, DataLen: 4097, Version: 1}},
		{"2d", func() ([]byte, error) { return Compress2D(smoothField(40*30, 5), 40, 30, p) },
			Header{ErrorBound: 1e-3, BlockSize: DefaultBlockSize, NumChunks: 3, DataLen: 1200, Version: 2, Width: 30}},
		{"3d", func() ([]byte, error) { return Compress3D(smoothField(6*10*8, 5), 6, 10, 8, p) },
			Header{ErrorBound: 1e-3, BlockSize: DefaultBlockSize, NumChunks: 3, DataLen: 480, Version: 3, Width: 8, Height: 10}},
	} {
		comp, err := tc.comp()
		if err != nil {
			t.Fatal(err)
		}
		h, err := ParseHeader(comp)
		if err != nil {
			t.Fatal(err)
		}
		if h != tc.want {
			t.Fatalf("%s: ParseHeader = %+v, want %+v", tc.name, h, tc.want)
		}
		// Payload bytes must be fully covered by the chunk size table.
		total := 0
		for i := 0; i < h.NumChunks; i++ {
			total += h.ChunkSize(comp, i)
		}
		if h.PayloadStart()+total != len(comp) {
			t.Fatalf("%s: size table covers %d payload bytes, container has %d",
				tc.name, total, len(comp)-h.PayloadStart())
		}
		dst := make([]byte, h.PayloadStart())
		h.Marshal(dst)
		for i := 0; i < h.NumChunks; i++ {
			h.PutChunkSize(dst, i, h.ChunkSize(comp, i))
		}
		if !bytes.Equal(dst, comp[:h.PayloadStart()]) {
			t.Fatalf("%s: Marshal does not reproduce the container header", tc.name)
		}
	}
}

// The single-chunk steady state — the configuration every ring collective
// runs per block — must not allocate once the scratch pools are warm.
func TestCompressIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	// 1 Mi elements split into segments across the runner's helpers, which
	// must not allocate either; 16 Ki is one segment.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	for _, n := range []int{1 << 14, 1 << 20} {
		data := smoothField(n, 8)
		p := Params{ErrorBound: 1e-3}
		dst := make([]byte, CompressBound(len(data), p))
		// Warm the pools and the helpers (the first calls may allocate).
		for i := 0; i < 4; i++ {
			if _, err := CompressInto(dst, data, p); err != nil {
				t.Fatal(err)
			}
		}
		before := telemetry.Capture()
		if allocs := steadyMallocs(20, func() {
			if _, err := CompressInto(dst, data, p); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("n=%d: steady-state CompressInto allocates %d objects in 20 calls, want 0", n, allocs)
		}
		d := telemetry.Capture().Delta(before).Counters
		if split := d["fzlight.compress.segments"] > d["fzlight.compress.calls"]; split != (n >= 2*minSegment) {
			t.Errorf("n=%d: split %v, want %v", n, split, n >= 2*minSegment)
		}
	}
}

// So must the matching decode: header on the stack, no closure, no
// per-chunk tables.
func TestDecompressIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	data := smoothField(1<<14, 8)
	p := Params{ErrorBound: 1e-3}
	for _, tc := range []struct {
		name string
		comp func() ([]byte, error)
	}{
		{"1d", func() ([]byte, error) { return Compress(data, p) }},
		{"1d-4-chunks", func() ([]byte, error) { return Compress(data, Params{ErrorBound: 1e-3, Threads: 4}) }},
		{"2d", func() ([]byte, error) { return Compress2D(data, 128, 128, p) }},
		{"3d", func() ([]byte, error) { return Compress3D(data, 16, 32, 32, p) }},
	} {
		comp, err := tc.comp()
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
			t.Fatalf("%s: steady-state DecompressInto allocates %v objects/op, want 0", tc.name, allocs)
		}
		allocs = testing.AllocsPerRun(100, func() {
			if err := DecompressAddInto(comp, out, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: steady-state DecompressAddInto allocates %v objects/op, want 0", tc.name, allocs)
		}
	}
}

// steadyMallocs counts the heap allocations of calls calls of f, in the
// steady state: the fewest over up to ten rounds. testing.AllocsPerRun
// runs at GOMAXPROCS 1, where no chunk splits and no helper runs; with
// more, a call that moves between cores takes a few rounds to find warm
// sync.Pool scratch (bufpool) on each, while a per-call allocation shows
// in every round.
func steadyMallocs(calls int, f func()) uint64 {
	best := ^uint64(0)
	for r := 0; r < 10 && best > 0; r++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < calls; i++ {
			f()
		}
		runtime.ReadMemStats(&m1)
		best = min(best, m1.Mallocs-m0.Mallocs)
	}
	return best
}
