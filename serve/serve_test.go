package serve

// Daemon lifecycle suite: concurrent jobs over one handshaked mesh must
// be digest-identical to standalone in-process runs, a job that loses a
// rank mid-collective must shrink and finish, and the bounded
// submission queue must reject with the typed ErrQueueFull.

import (
	"errors"
	"maps"
	"math"
	"net"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"hzccl"
	"hzccl/internal/datasets"
	"hzccl/internal/telemetry"
)

func counterValue(name string) int64 { return telemetry.C(name).Value() }

// startService boots an n-rank daemon service on loopback ephemeral
// ports and returns the daemons (rank 0 first). tweak, when non-nil,
// adjusts every rank's options before start.
func startService(t *testing.T, n int, tweak func(*Options)) []*Daemon {
	t.Helper()
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen rank %d: %v", i, err)
		}
		lns[i] = ln
		peers[i] = ln.Addr().String()
	}
	ds := make([]*Daemon, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opt := Options{
				Rank: i, Peers: peers, Listener: lns[i],
				DialTimeout: 10 * time.Second,
				JobTimeout:  30 * time.Second,
				Logf:        t.Logf,
			}
			if tweak != nil {
				tweak(&opt)
			}
			ds[i], errs[i] = Start(opt)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d start: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, d := range ds {
			if d != nil {
				d.Close()
			}
		}
	})
	return ds
}

// refDigests runs the spec on the default in-process fabric through Run,
// the function every daemon rank runs its part of a job with, and returns
// per-rank digests keyed like JobResult.Digests — the standalone reference
// a daemon job must match bit-for-bit.
func refDigests(t *testing.T, world int, spec JobSpec) map[string]string {
	t.Helper()
	digests, _, err := Run(spec, world, nil, 0, nil)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	out := make(map[string]string, len(digests))
	for rank, d := range digests {
		out[strconv.Itoa(rank)] = d
	}
	return out
}

// rank names a kill victim in a JobSpec.
func rank(r int) *int { return &r }

// The acceptance property: one 4-rank service, handshaked once, runs
// two jobs CONCURRENTLY (different backends and algorithms), and every
// per-rank digest is bit-identical to a standalone in-process run of
// the same spec.
func TestDaemonConcurrentJobsMatchStandalone(t *testing.T) {
	const n = 4
	ds := startService(t, n, nil)
	specs := []JobSpec{
		{Backend: "hzccl", Algorithm: "ring", MessageBytes: 1 << 16},
		{Backend: "mpi", Algorithm: "rd", MessageBytes: 1 << 15},
	}
	refs := make([]map[string]string, len(specs))
	for i, s := range specs {
		refs[i] = refDigests(t, n, s)
	}
	results := make([]*JobResult, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, s := range specs {
		wg.Add(1)
		go func(i int, s JobSpec) {
			defer wg.Done()
			c, err := Dial(ds[0].ClientAddr())
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			results[i], errs[i] = c.Submit(s)
		}(i, s)
	}
	wg.Wait()
	for i := range specs {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if len(results[i].Digests) != n {
			t.Fatalf("job %d: %d digests, want %d", i, len(results[i].Digests), n)
		}
		for rank, want := range refs[i] {
			if got := results[i].Digests[rank]; got != want {
				t.Fatalf("job %d rank %s: daemon digest %s, standalone %s", i, rank, got, want)
			}
		}
		if results[i].VirtualSeconds <= 0 {
			t.Fatalf("job %d: no virtual time reported", i)
		}
	}
	// Both jobs ran as distinct IDs in the registry, all done.
	c, err := Dial(ds[0].ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	jobs, err := c.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(specs) {
		t.Fatalf("registry has %d jobs, want %d", len(jobs), len(specs))
	}
	for _, j := range jobs {
		if j.State != StateDone {
			t.Fatalf("job %d state %q, want done", j.ID, j.State)
		}
	}
	// Worker registries saw the same jobs.
	if got := len(ds[1].Jobs()); got != len(specs) {
		t.Fatalf("worker registry has %d jobs, want %d", got, len(specs))
	}
}

// A sequence of jobs reuses the mesh without re-handshaking: the
// transport dial/accept counters must not move after startup.
func TestDaemonReusesConnections(t *testing.T) {
	const n = 3
	ds := startService(t, n, nil)
	dials := transportConnCount()
	c, err := Dial(ds[0].ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.Submit(JobSpec{MessageBytes: 1 << 14}); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if got := transportConnCount(); got != dials {
		t.Fatalf("connection count moved %d → %d across jobs; the mesh must be reused", dials, got)
	}
}

func transportConnCount() int64 {
	return counterValue("cluster.transport.dials") + counterValue("cluster.transport.accepts")
}

// A job's control exchange is one kStart out to each worker and one kDone
// back: on a 4-rank mesh that is 3 + 3 job frames, beside the 12 session
// byes (each rank's session end tells its three peers), 18 in all. A
// per-job round on top of the session layer would show here.
func TestDaemonJobMovesTwoFramesPerWorker(t *testing.T) {
	const n = 4
	ds := startService(t, n, nil)
	c, err := Dial(ds[0].ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	frames := func() int64 { return counterValue("cluster.transport.job_frames") }
	before := frames()
	if _, err := c.Submit(JobSpec{MessageBytes: 1 << 14}); err != nil {
		t.Fatal(err)
	}
	const want = 2*(n-1) + n*(n-1)
	// The byes between workers may land after the submit returned.
	for deadline := time.Now().Add(10 * time.Second); frames()-before < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	// At want, every frame a job sends has landed; the pause lets a frame
	// beyond them land and show.
	time.Sleep(50 * time.Millisecond)
	if got := frames() - before; got != want {
		t.Fatalf("one %d-rank job moved %d job frames, want %d (kStart and kDone per worker, plus the session byes)", n, got, want)
	}
}

// A job whose spec kills a rank mid-collective must shrink and finish:
// the victim reports killed, the survivors' digests match the
// standalone kill run, and the service stays healthy for the next job.
func TestDaemonJobSurvivesKillRankShrink(t *testing.T) {
	const n = 4
	ds := startService(t, n, nil)
	spec := JobSpec{Backend: "hzccl", Algorithm: "ring", MessageBytes: 1 << 16, KillRank: rank(3), KillStep: 1}
	ref := refDigests(t, n, spec)
	c, err := Dial(ds[0].ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Submit(spec)
	if err != nil {
		t.Fatalf("kill job: %v", err)
	}
	if len(res.Killed) != 1 || res.Killed[0] != 3 {
		t.Fatalf("killed = %v, want [3]", res.Killed)
	}
	if len(res.Evicted) == 0 {
		t.Fatalf("no eviction recorded for the killed rank")
	}
	if len(res.Digests) != n-1 {
		t.Fatalf("%d survivor digests, want %d", len(res.Digests), n-1)
	}
	for rank, want := range ref {
		if got := res.Digests[rank]; got != want {
			t.Fatalf("survivor rank %s: daemon digest %s, standalone %s", rank, got, want)
		}
	}
	// The shrink was job-scoped: the mesh is intact and the next healthy
	// job runs on the full world.
	after, err := c.Submit(JobSpec{MessageBytes: 1 << 14})
	if err != nil {
		t.Fatalf("job after shrink: %v", err)
	}
	if len(after.Digests) != n {
		t.Fatalf("post-shrink job got %d digests, want %d (shrink leaked across jobs)", len(after.Digests), n)
	}
}

// Rank 0 schedules the jobs, and its job body may still be the victim: its
// own rank of the job dies, the three workers evict it and finish, and
// their digests equal a 3-rank in-process run of the same job.
func TestDaemonJobSurvivesKillOfRankZero(t *testing.T) {
	const n = 4
	ds := startService(t, n, nil)
	spec := JobSpec{Backend: "hzccl", MessageBytes: 1 << 16}
	want := refDigests(t, n-1, spec)["0"]
	c, err := Dial(ds[0].ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	spec.KillRank, spec.KillStep = rank(0), 1
	res, err := c.Submit(spec)
	if err != nil {
		t.Fatalf("kill job: %v", err)
	}
	if !slices.Equal(res.Killed, []int{0}) || !slices.Equal(res.Evicted, []int{0}) {
		t.Fatalf("killed %v, evicted %v, want [0] and [0]", res.Killed, res.Evicted)
	}
	if len(res.Digests) != n-1 || res.VirtualSeconds <= 0 {
		t.Fatalf("%d survivor digests and %g s virtual time, want %d digests and the survivors' time", len(res.Digests), res.VirtualSeconds, n-1)
	}
	for r, got := range res.Digests {
		if got != want {
			t.Errorf("survivor rank %s: daemon digest %s, 3-rank in-process %s", r, got, want)
		}
	}
}

// Run gives the same digests on the in-process fabric and on a 4-rank
// loopback TCP mesh (one job session per run, as a daemon job has), for
// each collective, a schedule that adapts to the topology and a kill.
func TestRunAgreesAcrossFabrics(t *testing.T) {
	const n = 4
	trs := loopbackMesh(t, n)
	for i, spec := range []JobSpec{
		{Backend: "hzccl", MessageBytes: 1 << 16},
		{Op: "reduce_scatter", Backend: "ccoll", Algorithm: "rabenseifner", MessageBytes: 1 << 16},
		{Backend: "mpi", Algorithm: "auto", Topology: "2x2", MessageBytes: 16 << 10},
		{Backend: "hzccl", MessageBytes: 1 << 16, KillRank: rank(2), KillStep: 1},
	} {
		want, _, err := Run(spec, n, nil, 0, nil)
		if err != nil {
			t.Fatalf("spec %d in-process: %v", i, err)
		}
		got := make(map[int]string)
		var mu sync.Mutex
		var wg sync.WaitGroup
		errs := make([]error, n)
		for r, tr := range trs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sess, err := tr.Session(uint32(i + 1))
				if err != nil {
					errs[r] = err
					return
				}
				digests, _, err := Run(spec, n, sess, 0, nil)
				if err != nil && !(spec.KillRank != nil && r == *spec.KillRank && errors.Is(err, hzccl.ErrRankKilled)) {
					errs[r] = err
				}
				mu.Lock()
				maps.Copy(got, digests)
				mu.Unlock()
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("spec %d on TCP: %v", i, err)
		}
		if !maps.Equal(got, want) {
			t.Errorf("spec %d: TCP digests %v, in-process %v", i, got, want)
		}
	}
}

// loopbackMesh forms an n-rank TCP mesh on loopback ephemeral ports.
func loopbackMesh(t *testing.T, n int) []*hzccl.TCPTransport {
	t.Helper()
	lns, peers := make([]net.Listener, n), make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], peers[i] = ln, ln.Addr().String()
	}
	trs, errs := make([]*hzccl.TCPTransport, n), make([]error, n)
	var wg sync.WaitGroup
	for i := range lns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			trs[i], errs[i] = hzccl.NewTCPTransport(hzccl.TCPOptions{Rank: i, Peers: peers, Listener: lns[i], DialTimeout: 10 * time.Second})
		}()
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, tr := range trs {
			if tr != nil {
				tr.Close()
			}
		}
	})
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	return trs
}

// The submission queue is bounded: with the only concurrency slot
// occupied and the queue full, the next submit is rejected with the
// typed ErrQueueFull — deterministically, by holding the slot from the
// test.
func TestDaemonQueueFullTyped(t *testing.T) {
	const n = 2
	ds := startService(t, n, func(o *Options) {
		o.QueueDepth = 1
		o.MaxConcurrent = 1
	})
	d0 := ds[0]
	rejectedBefore := counterValue("serve.jobs.rejected_queue_full")

	// Occupy the only concurrency slot so admitted jobs cannot start.
	d0.sem <- struct{}{}
	release := func() { <-d0.sem }

	submitAsync := func() (<-chan *JobResult, <-chan error) {
		rc, ec := make(chan *JobResult, 1), make(chan error, 1)
		go func() {
			c, err := Dial(d0.ClientAddr())
			if err != nil {
				ec <- err
				return
			}
			defer c.Close()
			r, err := c.Submit(JobSpec{MessageBytes: 1 << 14})
			if err != nil {
				ec <- err
			} else {
				rc <- r
			}
		}()
		return rc, ec
	}
	// Job A: dequeued by the scheduler, blocked on the held slot.
	ra, ea := submitAsync()
	time.Sleep(200 * time.Millisecond)
	// Job B: sits in the (depth-1) queue.
	rb, eb := submitAsync()
	time.Sleep(200 * time.Millisecond)

	// Job C: queue full — typed rejection, immediately.
	c, err := Dial(d0.ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Submit(JobSpec{MessageBytes: 1 << 14})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit into a full queue: %v, want ErrQueueFull", err)
	}
	if since := time.Since(start); since > 5*time.Second {
		t.Fatalf("queue-full rejection took %v; must not wait for running jobs", since)
	}
	if got := counterValue("serve.jobs.rejected_queue_full"); got != rejectedBefore+1 {
		t.Fatalf("rejection counter %d, want %d", got, rejectedBefore+1)
	}

	// Backpressure, not failure: released, both admitted jobs complete.
	release()
	for i, pair := range []struct {
		rc <-chan *JobResult
		ec <-chan error
	}{{ra, ea}, {rb, eb}} {
		select {
		case r := <-pair.rc:
			if len(r.Digests) != n {
				t.Fatalf("job %d: %d digests, want %d", i, len(r.Digests), n)
			}
		case err := <-pair.ec:
			t.Fatalf("queued job %d failed: %v", i, err)
		case <-time.After(30 * time.Second):
			t.Fatalf("queued job %d never completed after release", i)
		}
	}
}

// Spec validation happens at admission, not mid-job.
func TestDaemonRejectsBadSpecs(t *testing.T) {
	ds := startService(t, 2, nil)
	c, err := Dial(ds[0].ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, spec := range []JobSpec{
		{Backend: "turbo"},
		{Algorithm: "psychic"},
		{Op: "allgather"},
		{KillRank: rank(7)},            // out of the 2-rank world
		{KillRank: rank(-1)},           // no rank
		{MessageBytes: 2},              // below one element
		{Topology: "not-a-topology-#"}, // unparseable
	} {
		if _, err := c.Submit(spec); err == nil {
			t.Fatalf("bad spec %+v accepted", spec)
		} else if errors.Is(err, ErrQueueFull) {
			t.Fatalf("bad spec %+v misreported as queue pressure", spec)
		}
	}
	// The service is still healthy.
	if world, err := c.Ping(); err != nil || world != 2 {
		t.Fatalf("ping after rejections: world %d, err %v", world, err)
	}
}

// Closing rank 0 tears the whole service down: workers observe the dead
// mesh through Done.
func TestDaemonShutdownPropagates(t *testing.T) {
	ds := startService(t, 3, nil)
	ds[0].Close()
	for i := 1; i < 3; i++ {
		select {
		case <-ds[i].Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("worker %d never observed the mesh dying", i)
		}
	}
}

// Every rank times its job's input preparation — the dataset field and its
// error bound, which run before the collective and so outside
// RunResult.WallSeconds — once per job, in serve.job.input_ns.
func TestDaemonTimesJobInput(t *testing.T) {
	const n = 3
	ds := startService(t, n, nil)
	c, err := Dial(ds[0].ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := telemetry.Capture()
	if _, err := c.Submit(JobSpec{MessageBytes: 1 << 16}); err != nil {
		t.Fatal(err)
	}
	delta := telemetry.Capture().Delta(before)
	h := delta.Histograms["serve.job.input_ns"]
	if h.Count != n || h.Sum <= 0 {
		t.Fatalf("serve.job.input_ns advanced by %d spans (%d ns) over one job on %d ranks, want %d", h.Count, h.Sum, n, n)
	}
	// The daemons share this process, so their ranks share one input.
	if got := delta.Counters["serve.job.inputs_generated"]; got != 1 {
		t.Fatalf("serve.job.inputs_generated advanced by %d over one job on %d ranks in one process, want 1", got, n)
	}
}

// Ranks of a job that run in one process share one generation of its
// input and only read it: for every op × backend × algorithm a daemon
// offers, four concurrent Runs on sessions of a 4-rank loopback mesh give
// the in-process digests, generate no input of their own while one is
// held, and leave the held field equal to a fresh one bit for bit.
func TestRunSharesOneReadOnlyInput(t *testing.T) {
	const n = 4
	trs := loopbackMesh(t, n)
	job := uint32(0)
	for _, op := range []string{"allreduce", "reduce_scatter"} {
		for _, backend := range []string{"mpi", "ccoll", "hzccl"} {
			for _, algo := range []string{"ring", "rd", "rabenseifner", "hierarchical", "auto"} {
				spec := JobSpec{Op: op, Backend: backend, Algorithm: algo, Topology: "2x2", MessageBytes: 16 << 10, Dataset: "CESM-ATM", Offset: 2}
				want, _, err := Run(spec, n, nil, 0, nil)
				if err != nil {
					t.Fatalf("%s/%s/%s in-process: %v", op, backend, algo, err)
				}
				j, err := spec.parse(n)
				if err != nil {
					t.Fatal(err)
				}
				before := counterValue("serve.job.inputs_generated")
				field, _, release, err := holdInput(j.inputKey())
				if err != nil {
					t.Fatal(err)
				}
				job++
				got := make(map[int]string)
				var mu sync.Mutex
				var wg sync.WaitGroup
				errs := make([]error, n)
				for r, tr := range trs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						sess, err := tr.Session(job)
						if err != nil {
							errs[r] = err
							return
						}
						digests, _, err := Run(spec, n, sess, 0, nil)
						errs[r] = err
						mu.Lock()
						maps.Copy(got, digests)
						mu.Unlock()
					}()
				}
				wg.Wait()
				generated := counterValue("serve.job.inputs_generated") - before
				fresh, err := datasets.Field(j.Dataset, j.Offset, j.MessageBytes/4)
				if err != nil {
					t.Fatal(err)
				}
				same := slices.EqualFunc(field, fresh, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) })
				release()
				if err := errors.Join(errs...); err != nil {
					t.Fatalf("%s/%s/%s on TCP: %v", op, backend, algo, err)
				}
				if !maps.Equal(got, want) {
					t.Errorf("%s/%s/%s: TCP digests %v, in-process %v", op, backend, algo, got, want)
				}
				if generated != 1 {
					t.Errorf("%s/%s/%s: serve.job.inputs_generated advanced by %d, want 1", op, backend, algo, generated)
				}
				if !same {
					t.Errorf("%s/%s/%s: the shared field changed during the job", op, backend, algo)
				}
			}
		}
	}
	inputs.Lock()
	left := len(inputs.m)
	inputs.Unlock()
	if left != 0 {
		t.Fatalf("%d inputs still held after every Run returned", left)
	}
}

// The registry keeps every running job and a window of finished ones:
// after more than finishedJobsKept jobs, each rank lists at most that
// many finished jobs, and the newest are among them.
func TestDaemonJobRegistryIsBounded(t *testing.T) {
	const n = 2
	ds := startService(t, n, func(o *Options) { o.Logf = nil })
	c, err := Dial(ds[0].ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var last uint32
	for i := 0; i < finishedJobsKept+20; i++ {
		res, err := c.Submit(JobSpec{MessageBytes: 1 << 10})
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		last = res.ID
	}
	for rank, d := range ds {
		jobs := d.Jobs()
		running := 0
		for _, j := range jobs {
			if j.State == StateRunning {
				running++
			}
		}
		if len(jobs) > finishedJobsKept+running {
			t.Errorf("rank %d lists %d jobs, %d of them running; want at most %d + running", rank, len(jobs), running, finishedJobsKept)
		}
		if !slices.IsSortedFunc(jobs, func(a, b JobStatus) int { return int(a.ID) - int(b.ID) }) || jobs[len(jobs)-1].ID != last {
			t.Errorf("rank %d: jobs %d..%d, want the newest, %d, last", rank, jobs[0].ID, jobs[len(jobs)-1].ID, last)
		}
	}
	if got := ds[0].Jobs(); len(got) != finishedJobsKept || got[0].ID != last-finishedJobsKept+1 {
		t.Errorf("rank 0 lists %d jobs from %d, want the last %d from %d", len(got), got[0].ID, finishedJobsKept, last-finishedJobsKept+1)
	}
}

// Two jobs that share an input but not a relative bound run at once on a
// 4-rank loopback mesh: they share one generation of the field, and each
// gives the digests of its own standalone run, so each scaled the shared
// range by its own RelBound.
func TestSharedInputKeepsEachJobsBound(t *testing.T) {
	const n = 4
	trs := loopbackMesh(t, n)
	specs := []JobSpec{
		{Backend: "hzccl", MessageBytes: 1 << 16, Dataset: "NYX", Offset: 1, RelBound: 1e-4},
		{Backend: "hzccl", MessageBytes: 1 << 16, Dataset: "NYX", Offset: 1, RelBound: 1e-2},
	}
	want := make([]map[int]string, len(specs))
	for i, spec := range specs {
		var err error
		if want[i], _, err = Run(spec, n, nil, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if maps.Equal(want[0], want[1]) {
		t.Fatal("the two bounds give the same digests: the test cannot tell them apart")
	}
	j, err := specs[0].parse(n)
	if err != nil {
		t.Fatal(err)
	}
	before := counterValue("serve.job.inputs_generated")
	_, _, release, err := holdInput(j.inputKey()) // both jobs find it held
	if err != nil {
		t.Fatal(err)
	}
	// A transport opens its job sessions in ID order.
	sessions := make([][]hzccl.Transport, len(specs))
	for i := range specs {
		for _, tr := range trs {
			sess, err := tr.Session(uint32(i + 1))
			if err != nil {
				t.Fatal(err)
			}
			sessions[i] = append(sessions[i], sess)
		}
	}
	got := make([]map[int]string, len(specs))
	errs := make([]error, n*len(specs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, spec := range specs {
		got[i] = make(map[int]string)
		for r, sess := range sessions[i] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				digests, _, err := Run(spec, n, sess, 0, nil)
				errs[i*n+r] = err
				mu.Lock()
				maps.Copy(got[i], digests)
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	release()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if !maps.Equal(got[i], want[i]) {
			t.Errorf("rel_bound %g: concurrent digests %v, standalone %v", specs[i].RelBound, got[i], want[i])
		}
	}
	if generated := counterValue("serve.job.inputs_generated") - before; generated != 1 {
		t.Errorf("serve.job.inputs_generated advanced by %d over two jobs sharing one input, want 1", generated)
	}
}

// An input's buffer goes back to bufpool once, when its last holder
// releases it, and at once when its generation fails.
func TestInputReturnsToThePoolOnce(t *testing.T) {
	var recycled [][]float32
	defer func(put func([]float32)) { recycleInput = put }(recycleInput)
	recycleInput = func(s []float32) { recycled = append(recycled, s) }

	k := inputKey{"Hurricane", 3, 1000}
	a, _, releaseA, err := holdInput(k)
	if err != nil {
		t.Fatal(err)
	}
	b, _, releaseB, err := holdInput(k)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("two holders of one key got different fields")
	}
	releaseA()
	if len(recycled) != 0 {
		t.Fatalf("the first of two releases recycled %d buffers", len(recycled))
	}
	releaseB()
	if len(recycled) != 1 || &recycled[0][0] != &a[0] {
		t.Fatalf("the last release recycled %d buffers, want the field once", len(recycled))
	}

	recycled = nil
	if _, _, _, err := holdInput(inputKey{"no-such-dataset", 0, 1000}); err == nil {
		t.Fatal("an unknown dataset generated")
	}
	if len(recycled) != 1 || len(recycled[0]) != 1000 {
		t.Fatalf("a failed generation recycled %d buffers, want its one", len(recycled))
	}
	inputs.Lock()
	left := len(inputs.m)
	inputs.Unlock()
	if left != 0 {
		t.Fatalf("%d inputs still held after every holder released", left)
	}
}

// A warm in-process job allocates its results and little else: its input
// is generated into the buffer an earlier job returned, the full vectors a
// recursive-doubling reduce-scatter cuts its blocks from go back to the
// pool, and results draw on the pool where it holds memory. Past the bytes
// of the results it hands back, a 4-rank 256 KiB job allocates less than
// one input; fresh memory for the input would cost one input more, and for
// the full vectors four.
func TestWarmRunRecyclesItsInput(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; byte counts are meaningless")
	}
	const n, input, warm, jobs = 4, 256 << 10, 4, 16
	// A collection between jobs would empty bufpool (sync.Pool) and charge
	// the refill to a job; the property is about the steady state.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, spec := range []JobSpec{
		{Op: "allreduce", Backend: "hzccl", MessageBytes: input},
		{Op: "reduce_scatter", Backend: "ccoll", Algorithm: "rd", MessageBytes: input},
	} {
		results := n * input // every rank's whole vector...
		if spec.Op == "reduce_scatter" {
			results = input // ...or its block of it
		}
		var before, after runtime.MemStats
		for i := range warm + jobs {
			if i == warm {
				runtime.ReadMemStats(&before)
			}
			if _, _, err := Run(spec, n, nil, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perJob := float64(after.TotalAlloc-before.TotalAlloc) / jobs
		t.Logf("%s %s: %.0f B per job, %d B of results, input %d B", spec.Op, spec.Backend, perJob, results, input)
		if extra := perJob - float64(results); extra >= input {
			t.Errorf("%s %s: a warm job allocates %.0f B past its %d B of results, want less than one input (%d B)",
				spec.Op, spec.Backend, extra, results, input)
		}
	}
}
