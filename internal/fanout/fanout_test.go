package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// counts is a Tasks that records how often each index ran.
type counts struct{ n []atomic.Int32 }

func (c *counts) Do(i int) { c.n[i].Add(1) }

// nested runs a Run inside each of its tasks, as a caller on a helper
// would.
type nested struct{ inner []*counts }

func (t *nested) Do(i int) { Run(len(t.inner[i].n), t.inner[i]) }

func checkOnce(t *testing.T, c *counts) {
	t.Helper()
	for i := range c.n {
		if got := c.n[i].Load(); got != 1 {
			t.Fatalf("task %d of %d ran %d times, want once", i, len(c.n), got)
		}
	}
}

// Every task runs exactly once, from concurrent callers, with tasks that
// fan out themselves, at any GOMAXPROCS.
func TestRunEachTaskOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for n := 0; n < 40; n++ {
						c := &counts{n: make([]atomic.Int32, n)}
						Run(n, c)
						checkOnce(t, c)
					}
					outer := &nested{}
					for i := 0; i < 6; i++ {
						outer.inner = append(outer.inner, &counts{n: make([]atomic.Int32, 3+i+g)})
					}
					Run(len(outer.inner), outer)
					for _, c := range outer.inner {
						checkOnce(t, c)
					}
				}(g)
			}
			wg.Wait()
		}()
	}
}

// A steady-state Run allocates nothing, helpers taking tasks or not: the
// fewest allocations over up to ten rounds of 100 Runs (the first Runs
// after a GOMAXPROCS change may allocate the runtime's per-core state).
func TestRunZeroAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	c := &counts{n: make([]atomic.Int32, 8)}
	best := ^uint64(0)
	for r := 0; r < 10 && best > 0; r++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < 100; i++ {
			Run(len(c.n), c)
		}
		runtime.ReadMemStats(&m1)
		best = min(best, m1.Mallocs-m0.Mallocs)
	}
	if best != 0 {
		t.Fatalf("100 Runs allocated %d objects, want 0", best)
	}
}

// Inside Inline every Run, on any goroutine, runs its tasks on its caller;
// overlapping calls leave GOMAXPROCS alone and the runner back at every
// core only when the last of them returns.
func TestInline(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	c := &counts{n: make([]atomic.Int32, 64)}
	inA, leaveA, doneA := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(doneA)
		Inline(func() {
			close(inA)
			<-leaveA
		})
	}()
	<-inA
	Inline(func() {
		close(leaveA)
		<-doneA // the overlapping call returns first
		if n := Cores(); n != 1 {
			t.Errorf("Cores() = %d inside Inline, want 1", n)
		}
		before := mHelperTasks.Value()
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() { defer wg.Done(); Run(len(c.n)/2, &counts{n: c.n[g*len(c.n)/2:][:len(c.n)/2]}) }()
		}
		wg.Wait()
		if n := mHelperTasks.Value() - before; n != 0 {
			t.Errorf("helpers ran %d tasks inside Inline, want 0", n)
		}
	})
	checkOnce(t, c)
	if n, p := Cores(), runtime.GOMAXPROCS(0); n != 3 || p != 3 {
		t.Errorf("after Inline: Cores() = %d, GOMAXPROCS %d, want 3 and 3", n, p)
	}
}

// Helpers a burst of work started are gone soon after it ends, so a
// process that stops compressing is back to the goroutines it had.
func TestHelpersExitWhenIdle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	c := &counts{n: make([]atomic.Int32, 64)}
	Run(len(c.n), c)
	if helpers.Load() == 0 {
		t.Fatal("no helper started")
	}
	deadline := time.Now().Add(10 * idle)
	for helpers.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(idle / 10)
	}
	if n := helpers.Load(); n != 0 {
		t.Fatalf("%d helpers still up %v after the last job", n, 10*idle)
	}
}

// A free list hands back what was put, each item once, keeps at most
// freeCap, and a nil one keeps nothing.
func TestFree(t *testing.T) {
	var f Free[int]
	if f.Get() != nil {
		t.Fatal("an empty list returned an item")
	}
	put := make(map[*int]bool)
	for i := 0; i < freeCap+3; i++ {
		x := new(int)
		put[x] = true
		f.Put(x)
	}
	got := make(map[*int]bool)
	for x := f.Get(); x != nil; x = f.Get() {
		if got[x] || !put[x] {
			t.Fatalf("Get returned %p twice or never put", x)
		}
		got[x] = true
	}
	if len(got) != freeCap {
		t.Fatalf("got %d items back, want freeCap = %d", len(got), freeCap)
	}
	var none *Free[int]
	none.Put(new(int))
	if none.Get() != nil {
		t.Fatal("a nil list returned an item")
	}
}
