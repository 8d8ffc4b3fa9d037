package serve

// Daemon lifecycle suite: concurrent jobs over one handshaked mesh must
// be digest-identical to standalone in-process runs, a job that loses a
// rank mid-collective must shrink and finish, and the bounded
// submission queue must reject with the typed ErrQueueFull.

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"hzccl"
	"hzccl/internal/datasets"
	"hzccl/internal/floatbytes"
	"hzccl/internal/metrics"
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

// refDigests runs the spec's collective on the default in-process
// fabric with exactly the daemon's configuration and returns per-rank
// digests keyed like JobResult.Digests — the standalone reference a
// daemon job must match bit-for-bit.
func refDigests(t *testing.T, world int, spec JobSpec) map[string]string {
	t.Helper()
	spec = spec.withDefaults()
	backend, err := hzccl.ParseBackend(spec.Backend)
	if err != nil {
		t.Fatal(err)
	}
	algo, err := hzccl.ParseAlgorithm(spec.Algorithm)
	if err != nil {
		t.Fatal(err)
	}
	base, err := datasets.Field(spec.Dataset, spec.Offset, spec.MessageBytes/4)
	if err != nil {
		t.Fatal(err)
	}
	opt := hzccl.CollectiveOptions{ErrorBound: metrics.AbsBound(spec.RelBound, base), Algorithm: algo}
	cfg := hzccl.ClusterConfig{
		Ranks: world, Latency: 2 * time.Microsecond, BandwidthBytes: 0.4e9,
		RecvTimeout: 2 * time.Second,
	}
	if spec.KillRank > 0 {
		cfg.Fault = hzccl.KillRank{Rank: spec.KillRank, AtStep: spec.KillStep}.Fault()
		cfg.Reliable = true
		opt.Degrade = &hzccl.DegradePolicy{Shrink: true}
	}
	var mu sync.Mutex
	digests := make(map[string]string)
	_, err = hzccl.RunCluster(cfg, func(r *hzccl.Rank) error {
		id0 := r.ID()
		var out []float32
		var err error
		if spec.Op == "reduce_scatter" {
			out, err = r.ReduceScatter(base, backend, opt)
		} else {
			out, err = r.Allreduce(base, backend, opt)
		}
		if err != nil {
			return err
		}
		mu.Lock()
		digests[strconv.Itoa(id0)] = fmt.Sprintf("%08x", floatbytes.Checksum(out))
		mu.Unlock()
		return nil
	})
	if err != nil && !errors.Is(err, hzccl.ErrRankKilled) {
		t.Fatalf("reference run: %v", err)
	}
	return digests
}

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
	spec := JobSpec{Backend: "hzccl", Algorithm: "ring", MessageBytes: 1 << 16, KillRank: 3, KillStep: 1}
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
		{KillRank: 7},                  // out of the 2-rank world
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
