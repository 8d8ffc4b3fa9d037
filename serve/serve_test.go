package serve

// Daemon lifecycle suite: concurrent jobs over one handshaked mesh must
// be digest-identical to standalone in-process runs, a job that loses a
// rank mid-collective must shrink and finish, and the bounded
// submission queue must reject with the typed ErrQueueFull.

import (
	"errors"
	"maps"
	"net"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"hzccl"
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
	h := telemetry.Capture().Delta(before).Histograms["serve.job.input_ns"]
	if h.Count != n || h.Sum <= 0 {
		t.Fatalf("serve.job.input_ns advanced by %d spans (%d ns) over one job on %d ranks, want %d", h.Count, h.Sum, n, n)
	}
}
