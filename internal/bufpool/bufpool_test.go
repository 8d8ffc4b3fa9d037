package bufpool

import (
	"sync"
	"testing"

	"hzccl/internal/telemetry"
)

func TestClassFor(t *testing.T) {
	cases := []struct{ n, class int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 20, 20}, {1<<20 + 1, 21},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestCapClass(t *testing.T) {
	cases := []struct{ c, class int }{
		{0, -1}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3},
	}
	for _, c := range cases {
		if got := capClass(c.c); got != c.class {
			t.Errorf("capClass(%d) = %d, want %d", c.c, got, c.class)
		}
	}
}

// A Get after a Put of sufficient capacity must reuse the buffer, and the
// returned slice must always have the requested length.
func TestRoundTripReuse(t *testing.T) {
	s := Bytes(1000)
	if len(s) != 1000 || cap(s) < 1000 {
		t.Fatalf("Bytes(1000): len %d cap %d", len(s), cap(s))
	}
	s[0], s[999] = 0xAA, 0xBB
	PutBytes(s)
	// Same class (1024): must come back.
	u := Bytes(700)
	if len(u) != 700 {
		t.Fatalf("Bytes(700): len %d", len(u))
	}
	if cap(u) < 700 {
		t.Fatalf("Bytes(700): cap %d too small", cap(u))
	}
}

// Put of a shrunk sub-length slice must restore full capacity for reuse.
func TestPutRestoresCapacity(t *testing.T) {
	s := Int32s(64)
	PutInt32s(s[:3]) // caller sliced it down; capacity class is what counts
	u := Int32s(60)
	if len(u) != 60 {
		t.Fatalf("len %d, want 60", len(u))
	}
}

// Get must never return a buffer too small for the request even when the
// pool holds smaller buffers (class separation).
func TestClassSeparation(t *testing.T) {
	PutUint32s(make([]uint32, 8))
	big := Uint32s(1 << 12)
	if len(big) != 1<<12 {
		t.Fatalf("len %d", len(big))
	}
	for i := range big {
		big[i] = 7 // would fault if capacity were a lie
	}
}

// Telemetry counters must move: a miss then a hit, and recycled bytes.
func TestTelemetryCounters(t *testing.T) {
	hits0 := telemetry.C("bufpool.hits").Value()
	rec0 := telemetry.C("bufpool.bytes_recycled").Value()
	s := Float32s(1 << 16)
	PutFloat32s(s)
	_ = Float32s(1 << 16) // hit (same goroutine, same P: pool serves it back)
	if telemetry.C("bufpool.bytes_recycled").Value()-rec0 < 4*(1<<16) {
		t.Errorf("bytes_recycled did not advance")
	}
	if telemetry.C("bufpool.hits").Value() == hits0 {
		t.Logf("note: no pool hit observed (GC or P migration); counters: hits=%d",
			telemetry.C("bufpool.hits").Value())
	}
}

// The pools must be safe under concurrent mixed Get/Put from many
// goroutines (run with -race in make check).
func TestConcurrentAccess(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				n := 1 + (g*37+i*13)%4096
				b := Bytes(n)
				for j := range b {
					b[j] = byte(g)
				}
				for j := range b {
					if b[j] != byte(g) {
						t.Errorf("buffer aliased across goroutines")
						return
					}
				}
				PutBytes(b)
			}
		}(g)
	}
	wg.Wait()
}

// Steady-state Get/Put must not allocate (boxes recycle through the box
// pool). A stray GC can clear a sync.Pool mid-run, so allow the average to
// be marginally above zero only in that case.
func TestZeroAllocSteadyState(t *testing.T) {
	for i := 0; i < 16; i++ { // warm the pool and the box pool
		PutBytes(Bytes(4096))
	}
	avg := testing.AllocsPerRun(200, func() {
		b := Bytes(4096)
		PutBytes(b)
	})
	if avg != 0 {
		t.Errorf("steady-state Get/Put allocates %.2f allocs/op, want 0", avg)
	}
}

func BenchmarkGetPut(b *testing.B) {
	b.ReportAllocs()
	PutBytes(Bytes(1 << 16))
	for i := 0; i < b.N; i++ {
		s := Bytes(1 << 16)
		PutBytes(s)
	}
}

// A kept buffer costs no more than make on a miss — capacity exactly n, not
// the class's — and recycles pooled memory on a hit, without allocating.
func TestKeepFloat32s(t *testing.T) {
	const n = 3<<20 + 7 // a class nothing else in this package uses
	if s := KeepFloat32s(n); len(s) != n || cap(s) != n {
		t.Fatalf("KeepFloat32s(%d) on a miss: len %d cap %d, want both %d", n, len(s), cap(s), n)
	}
	if raceEnabled {
		return // the race detector's sync.Pool drops Puts at random
	}
	// A length between two classes: its miss is exactly 1000 long, which
	// Put bins in the class below 1000, and the next call of the same
	// length must find it there (runs first: a 1024-long buffer in the
	// class above would serve it too).
	PutFloat32s(KeepFloat32s(1000))
	avg := testing.AllocsPerRun(100, func() {
		s := KeepFloat32s(1000)
		if len(s) != 1000 {
			t.Fatalf("KeepFloat32s(1000): len %d", len(s))
		}
		PutFloat32s(s)
	})
	if avg != 0 {
		t.Errorf("KeepFloat32s(1000) recycled through PutFloat32s allocates %.2f allocs/op, want 0", avg)
	}

	// A whole class's length: a stray miss (a collection) puts back a
	// buffer the next call hits again.
	PutFloat32s(make([]float32, 1<<10))
	avg = testing.AllocsPerRun(100, func() {
		s := KeepFloat32s(1 << 10)
		if len(s) != 1<<10 {
			t.Fatalf("KeepFloat32s(1024): len %d", len(s))
		}
		PutFloat32s(s)
	})
	if avg != 0 {
		t.Errorf("KeepFloat32s with a pooled buffer allocates %.2f allocs/op, want 0", avg)
	}
}
