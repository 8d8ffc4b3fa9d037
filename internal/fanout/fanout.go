// Package fanout runs the independent tasks of one codec call — the
// chunks of a container and the segments of a chunk — on the calling
// goroutine and on a small process-wide set of helper goroutines, which
// exit after a spell without work.
//
// A call hands its job only to helpers that are idle at that moment and
// then works through the tasks itself, so it never waits for a task nobody
// has started: on a busy process (four ranks on two cores) the caller
// simply runs every task, and at GOMAXPROCS(1) or inside Inline no helper
// is involved at all. The steady state allocates nothing: jobs come from a
// free list and a helper serves one call after another until it has been
// idle for a while.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hzccl/internal/telemetry"
)

// Tasks is the work of one Run: Do(i) is called exactly once for every i
// in [0, n), in no particular order and possibly concurrently.
type Tasks interface{ Do(i int) }

// maxHelpers caps the helper goroutines however high GOMAXPROCS goes.
const maxHelpers = 63

// job is one Run in flight.
type job struct {
	t    Tasks
	n    int32
	next atomic.Int32 // the next task index to hand out
	// refs counts the participants still inside the job: the caller and
	// every helper it was handed to. The one that drops it to zero, if it
	// is a helper, signals done, so the caller recycles the job only after
	// every helper has let go of it.
	refs atomic.Int32
	done chan struct{}
}

// mHelperTasks counts the tasks helpers ran: the work a call got off its
// own core.
var mHelperTasks = telemetry.C("fanout.helper_tasks")

var (
	// work is unbuffered: a non-blocking send succeeds only into a helper
	// that is parked waiting for a job.
	work    = make(chan *job)
	helpers atomic.Int32
	spawnMu sync.Mutex
	jobs    Free[job]
)

// freeCap is the capacity of a free list: room for the jobs or plans of
// more codec calls than a process runs at once (one per rank sharing it).
// A call past it allocates its own and drops it on return.
const freeCap = 16

// Free is a free list for the per-call state of a fan-out: freeCap slots,
// each emptied and filled by compare-and-swap, so it takes no lock. Unlike
// a sync.Pool it is not per-core: what one call puts back the next takes,
// whichever core either ran on, and a GC drops nothing, so a steady state
// that moves between cores allocates nothing. A nil *Free keeps nothing.
type Free[T any] struct{ slots [freeCap]atomic.Pointer[T] }

// Get returns a free *T, or nil when there is none.
func (f *Free[T]) Get() *T {
	if f == nil {
		return nil
	}
	for i := range f.slots {
		if x := f.slots[i].Load(); x != nil && f.slots[i].CompareAndSwap(x, nil) {
			return x
		}
	}
	return nil
}

// Put returns x to the list, or drops it when the list is full.
func (f *Free[T]) Put(x *T) {
	if f == nil {
		return
	}
	for i := range f.slots {
		if f.slots[i].Load() == nil && f.slots[i].CompareAndSwap(nil, x) {
			return
		}
	}
}

// Run calls t.Do(i) for every i in [0, n) and returns when all calls have
// returned. It uses up to Cores() goroutines, the caller among them.
func Run(n int, t Tasks) {
	want := 0
	if n > 1 { // Cores reads GOMAXPROCS, which takes the scheduler's lock
		want = min(n, Cores(), maxHelpers+1) - 1
	}
	if want <= 0 {
		for i := 0; i < n; i++ {
			t.Do(i)
		}
		return
	}
	spawn(want)
	j := jobs.Get()
	if j == nil {
		j = &job{done: make(chan struct{}, 1)}
	}
	j.t, j.n = t, int32(n)
	j.next.Store(0)
	j.refs.Store(1)
	for h := 0; h < want; h++ {
		j.refs.Add(1)
		select {
		case work <- j:
			continue
		default:
		}
		j.refs.Add(-1)
		break
	}
	j.run()
	if j.refs.Add(-1) != 0 {
		<-j.done
	}
	j.t = nil
	jobs.Put(j)
}

// run takes tasks until none are left and returns how many it ran.
func (j *job) run() (ran int64) {
	for i := j.next.Add(1) - 1; i < j.n; i = j.next.Add(1) - 1 {
		j.t.Do(int(i))
		ran++
	}
	return ran
}

// spawn makes sure at least want helpers exist.
func spawn(want int) {
	if int(helpers.Load()) >= want {
		return
	}
	spawnMu.Lock()
	for int(helpers.Load()) < want {
		helpers.Add(1)
		go helper(time.NewTimer(idle))
	}
	spawnMu.Unlock()
}

// idle is how long a helper waits for a job before it exits: long enough
// to stay across the gaps between the codec calls of a collective, short
// enough that a process which stops compressing is soon back to the
// goroutines it had.
const idle = 100 * time.Millisecond

// helper serves jobs until t, its idle timer, fires. The timer is made by
// spawn, so a helper allocates nothing once it runs.
func helper(t *time.Timer) {
	for {
		select {
		case j := <-work:
			mHelperTasks.Add(j.run())
			if j.refs.Add(-1) == 0 {
				j.done <- struct{}{}
			}
			t.Reset(idle)
		case <-t.C:
			helpers.Add(-1)
			return
		}
	}
}

// inline counts the Inline calls in progress anywhere in the process.
var inline atomic.Int32

// Cores is how many goroutines a Run may use now: GOMAXPROCS, or 1 while
// an Inline call is in progress.
func Cores() int {
	if inline.Load() > 0 {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// Inline runs f so that every Run that starts meanwhile, in f or in any
// other goroutine, runs all its tasks on its caller. Code that turns a
// codec's wall time into a single-thread figure, or scales it by a
// modelled multi-thread speedup, times the codec inside Inline; holding
// every other codec call to its own goroutine meanwhile also keeps helpers
// off the cores the timed call runs on. Calls may nest and overlap, and
// GOMAXPROCS is left alone.
func Inline(f func()) {
	inline.Add(1)
	defer inline.Add(-1)
	f()
}
