package serve

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"hzccl"
	"hzccl/internal/telemetry"
)

// Job telemetry: every admission decision and outcome is counted, so a
// scrape of any daemon rank shows what the service has been doing.
var (
	mJobsSubmitted = telemetry.C("serve.jobs.submitted")
	mJobsCompleted = telemetry.C("serve.jobs.completed")
	mJobsFailed    = telemetry.C("serve.jobs.failed")
	mJobsRejected  = telemetry.C("serve.jobs.rejected_queue_full")
	// mJobInputNS times each job's input preparation on every rank — the
	// dataset field and its error bound — which runs before the collective
	// and so outside RunResult.WallSeconds.
	mJobInputNS = telemetry.H("serve.job.input_ns", telemetry.DurationBuckets())
	// mJobInputsGenerated counts the job inputs this process generated:
	// one per job whose ranks all run here, however many ranks share it.
	mJobInputsGenerated = telemetry.C("serve.job.inputs_generated")
)

// Flight-recorder phase codes of serve-level FlightJob events (the
// transport records phases 0/1 for session open/close).
const (
	flightJobStart = 2
	flightJobDone  = 3
	flightJobFail  = 4
)

// Options configures one daemon rank.
type Options struct {
	// Rank and Peers describe this process's place in the mesh, exactly
	// as TCPOptions does: Peers[Rank] is our listen address.
	Rank  int
	Peers []string
	// Listener, when non-nil, replaces listening on Peers[Rank] (tests
	// use it to grab ephemeral ports).
	Listener net.Listener
	// DialTimeout bounds mesh formation (0 = the transport's 15s).
	DialTimeout time.Duration
	// ClientAddr is where rank 0 serves the client protocol
	// ("host:port"; empty selects a loopback ephemeral port). Ignored on
	// other ranks — the mesh itself carries their control traffic.
	ClientAddr string
	// QueueDepth bounds the submission queue on rank 0: a submit
	// arriving with the queue full is rejected with ErrQueueFull instead
	// of growing an unbounded backlog. 0 selects 16.
	QueueDepth int
	// MaxConcurrent caps the jobs running simultaneously. The scheduler
	// acquires a slot BEFORE telling any worker to start, so the set of
	// concurrently-running jobs is identical on every rank. 0 selects 2.
	MaxConcurrent int
	// JobTimeout bounds each job's rank-membership handshake and result
	// collection (not the collective itself, which is bounded by its own
	// receive deadline and retry budget). 0 selects 60s.
	JobTimeout time.Duration
	// RecvTimeout is the per-job receive deadline (0 = Run's 2s).
	RecvTimeout time.Duration
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.QueueDepth == 0 {
		o.QueueDepth = 16
	}
	if o.MaxConcurrent == 0 {
		o.MaxConcurrent = 2
	}
	if o.JobTimeout == 0 {
		o.JobTimeout = 60 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// finishedJobsKept bounds the finished jobs a daemon keeps for Jobs and
// /jobs. Running jobs are always kept; past the bound the oldest finished
// job goes first.
const finishedJobsKept = 256

// jobState is a running job's registry entry plus its routing channels.
type jobState struct {
	status JobStatus
	// rank 0: worker readiness and result collection.
	ready chan int
	done  chan rankReport
	// workers: closed when the scheduler says go.
	goCh chan struct{}
}

// pendingJob is one queued submission on rank 0.
type pendingJob struct {
	spec JobSpec
	resp chan response
}

// Daemon is one rank of the collective-as-a-service mesh. Create it
// with Start; it serves until Close (or until the mesh dies under it —
// watch Done).
type Daemon struct {
	opt Options
	tr  *hzccl.TCPTransport

	clientLn net.Listener     // rank 0 only
	pending  chan *pendingJob // rank 0 only
	sem      chan struct{}    // rank 0 only

	mu       sync.Mutex
	jobs     map[uint32]*jobState // running jobs
	finished []JobStatus          // finished jobs, in finishing order
	nextID   uint32
	conns    map[net.Conn]struct{} // live client connections (rank 0)

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
}

// Start forms the mesh (blocking until every rank is connected) and
// begins serving jobs. Every rank of the service runs one Start; rank 0
// additionally opens the client listener.
func Start(opt Options) (*Daemon, error) {
	opt = opt.withDefaults()
	tr, err := hzccl.NewTCPTransport(hzccl.TCPOptions{
		Rank: opt.Rank, Peers: opt.Peers,
		DialTimeout: opt.DialTimeout, Listener: opt.Listener,
	})
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		opt:    opt,
		tr:     tr,
		jobs:   make(map[uint32]*jobState),
		conns:  make(map[net.Conn]struct{}),
		closed: make(chan struct{}),
	}
	tr.SetJobHandler(d.handleJobFrame)
	// The service mesh has fixed membership: jobs come and go on
	// sessions, but a mesh connection dying means a peer daemon is gone,
	// and the service cannot run full-world jobs anymore. Tear down so
	// operators (and Done watchers) see a crisp exit instead of every
	// future job timing out.
	tr.SetPeerDownHandler(func(rank int, cause error) {
		opt.Logf("serve: rank %d/%d: mesh peer %d down (%v), shutting down", opt.Rank, tr.World(), rank, cause)
		go d.Close()
	})
	if opt.Rank == 0 {
		addr := opt.ClientAddr
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			tr.Close()
			return nil, fmt.Errorf("serve: client listen %s: %w", addr, err)
		}
		d.clientLn = ln
		d.pending = make(chan *pendingJob, opt.QueueDepth)
		d.sem = make(chan struct{}, opt.MaxConcurrent)
		d.wg.Add(2)
		go d.acceptClients()
		go d.schedule()
	}
	opt.Logf("serve: rank %d/%d up (mesh %s)", opt.Rank, tr.World(), tr.Addr())
	return d, nil
}

// ClientAddr returns the client-protocol listen address (rank 0), or ""
// on worker ranks.
func (d *Daemon) ClientAddr() string {
	if d.clientLn == nil {
		return ""
	}
	return d.clientLn.Addr().String()
}

// World returns the mesh size.
func (d *Daemon) World() int { return d.tr.World() }

// Done is closed when the daemon shuts down — its own Close, or the
// self-teardown triggered by a peer daemon dying. Worker ranks select
// on it to exit when the service is torn down remotely.
func (d *Daemon) Done() <-chan struct{} { return d.closed }

// Close shuts the daemon down: the client listener, the mesh, and every
// in-flight job goroutine (which observe the closed mesh and fail
// promptly).
func (d *Daemon) Close() error {
	d.closeOnce.Do(func() {
		close(d.closed)
		if d.clientLn != nil {
			d.clientLn.Close()
		}
		d.mu.Lock()
		for conn := range d.conns {
			conn.Close()
		}
		d.mu.Unlock()
		d.tr.Close()
	})
	d.wg.Wait()
	return nil
}

// Jobs snapshots the local job registry, oldest job first: every running
// job and the last finishedJobsKept finished ones. On rank 0 this is the
// service-wide view; workers list the jobs they executed.
func (d *Daemon) Jobs() []JobStatus {
	d.mu.Lock()
	out := make([]JobStatus, 0, len(d.jobs)+len(d.finished))
	for _, js := range d.jobs {
		out = append(out, js.status)
	}
	out = append(out, d.finished...)
	d.mu.Unlock()
	slices.SortFunc(out, func(a, b JobStatus) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// addJob registers a running job.
func (d *Daemon) addJob(js *jobState) {
	d.mu.Lock()
	d.jobs[js.status.ID] = js
	d.mu.Unlock()
}

// endJob applies a running job's final state and moves it to the
// finished window, dropping its routing channels and, past
// finishedJobsKept, the oldest finished job.
func (d *Daemon) endJob(id uint32, f func(*JobStatus)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	js, ok := d.jobs[id]
	if !ok {
		return
	}
	f(&js.status)
	delete(d.jobs, id)
	if len(d.finished) == finishedJobsKept {
		d.finished[0] = JobStatus{}
		d.finished = d.finished[1:]
	}
	d.finished = append(d.finished, js.status)
}

// ---------------------------------------------------------------------
// Rank 0: client front door and scheduler.

func (d *Daemon) acceptClients() {
	defer d.wg.Done()
	for {
		conn, err := d.clientLn.Accept()
		if err != nil {
			return
		}
		d.wg.Add(1)
		go d.serveClient(conn)
	}
}

func (d *Daemon) serveClient(conn net.Conn) {
	defer d.wg.Done()
	d.mu.Lock()
	d.conns[conn] = struct{}{}
	d.mu.Unlock()
	select {
	case <-d.closed:
		// Shutdown raced the accept: Close may have iterated the conn
		// set before this registration.
		conn.Close()
	default:
	}
	defer func() {
		d.mu.Lock()
		delete(d.conns, conn)
		d.mu.Unlock()
		conn.Close()
	}()
	dec := json.NewDecoder(conn)
	enc := json.NewEncoder(conn)
	for {
		var req request
		if err := dec.Decode(&req); err != nil {
			return
		}
		var resp response
		switch req.Op {
		case opPing:
			resp = response{OK: true, World: d.tr.World()}
		case opJobs:
			resp = response{OK: true, Jobs: d.Jobs()}
		case opSubmit:
			resp = d.submit(req.Spec)
		default:
			resp = response{Error: fmt.Sprintf("unknown op %q", req.Op), Code: codeBadSpec}
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// submit validates and enqueues one job, blocking until it completes
// (the response is the job's result). A full queue rejects immediately.
func (d *Daemon) submit(spec *JobSpec) response {
	if spec == nil {
		return response{Error: "submit without a spec", Code: codeBadSpec}
	}
	j, err := spec.parse(d.tr.World())
	if err != nil {
		return response{Error: err.Error(), Code: codeBadSpec}
	}
	pj := &pendingJob{spec: j.JobSpec, resp: make(chan response, 1)}
	select {
	case d.pending <- pj:
		mJobsSubmitted.Inc()
	default:
		mJobsRejected.Inc()
		return response{Error: ErrQueueFull.Error(), Code: codeQueueFull}
	}
	select {
	case resp := <-pj.resp:
		return resp
	case <-d.closed:
		return response{Error: "daemon shutting down", Code: codeFailed}
	}
}

// schedule is rank 0's job loop: admit one queued job at a time, claim
// a concurrency slot, assign the next (strictly increasing) job ID,
// open the local session, tell every worker to start, and hand off to a
// coordinator goroutine. Everything order-sensitive — ID assignment,
// session opening, the kStart broadcast — happens here, serialized, so
// workers observe job IDs in increasing order on their rank-0
// connection and the transport's monotonic-ID rule holds by
// construction.
func (d *Daemon) schedule() {
	defer d.wg.Done()
	for {
		var pj *pendingJob
		select {
		case pj = <-d.pending:
		case <-d.closed:
			return
		}
		select {
		case d.sem <- struct{}{}:
		case <-d.closed:
			pj.resp <- response{Error: "daemon shutting down", Code: codeFailed}
			return
		}
		d.mu.Lock()
		d.nextID++
		id := d.nextID
		d.mu.Unlock()
		sess, err := d.tr.Session(id)
		if err != nil {
			<-d.sem
			pj.resp <- response{Error: err.Error(), Code: codeFailed}
			continue
		}
		js := &jobState{
			status: JobStatus{ID: id, State: StateRunning, Op: pj.spec.Op, Backend: pj.spec.Backend, Bytes: pj.spec.MessageBytes},
			ready:  make(chan int, d.tr.World()),
			done:   make(chan rankReport, d.tr.World()),
		}
		d.addJob(js)
		telemetry.Flight().Record(d.opt.Rank, telemetry.FlightJob, int64(id), flightJobStart, 0, 0)
		d.opt.Logf("serve: job %d admitted (%s/%s, %d bytes)", id, pj.spec.Op, pj.spec.Backend, pj.spec.MessageBytes)
		payload, _ := json.Marshal(pj.spec)
		startErr := error(nil)
		for w := 1; w < d.tr.World(); w++ {
			if err := d.tr.SendJob(w, id, kStart, payload); err != nil {
				startErr = fmt.Errorf("start rank %d: %w", w, err)
				break
			}
		}
		d.wg.Add(1)
		go d.coordinate(pj, id, sess, js, startErr)
	}
}

// coordinate drives one job on rank 0: gather worker readiness,
// broadcast go, run the local rank, collect every rank's report, and
// answer the submitting client.
func (d *Daemon) coordinate(pj *pendingJob, id uint32, sess hzccl.Transport, js *jobState, startErr error) {
	defer d.wg.Done()
	defer func() { <-d.sem }()
	n := d.tr.World()
	fail := func(err error) {
		sess.Close()
		d.finishJob(id, nil, err)
		pj.resp <- response{Error: fmt.Sprintf("job %d: %v", id, err), Code: codeFailed}
	}
	if startErr != nil {
		fail(startErr)
		return
	}
	deadline := time.NewTimer(d.opt.JobTimeout)
	defer deadline.Stop()
	for need := n - 1; need > 0; need-- {
		select {
		case <-js.ready:
		case <-deadline.C:
			fail(fmt.Errorf("membership handshake: %d workers missing after %v", need, d.opt.JobTimeout))
			return
		case <-d.closed:
			fail(errors.New("daemon shutting down"))
			return
		}
	}
	for w := 1; w < n; w++ {
		if err := d.tr.SendJob(w, id, kGo, nil); err != nil {
			fail(fmt.Errorf("go rank %d: %w", w, err))
			return
		}
	}
	reports := map[int]rankReport{0: d.runJob(sess, pj.spec)}
	for len(reports) < n {
		select {
		case rep := <-js.done:
			reports[rep.Rank] = rep
		case <-deadline.C:
			fail(fmt.Errorf("result collection: %d ranks missing after %v", n-len(reports), d.opt.JobTimeout))
			return
		case <-d.closed:
			fail(errors.New("daemon shutting down"))
			return
		}
	}

	result := &JobResult{ID: id, Digests: make(map[string]string)}
	var jobErr error
	for rank, rep := range reports {
		switch {
		case rep.Killed:
			result.Killed = append(result.Killed, rank)
		case rep.Err != "":
			if jobErr == nil {
				jobErr = fmt.Errorf("rank %d: %s", rank, rep.Err)
			}
		default:
			result.Digests[strconv.Itoa(rank)] = rep.Digest
		}
		if len(rep.Evicted) > len(result.Evicted) {
			result.Evicted = rep.Evicted
		}
	}
	sort.Ints(result.Killed)
	// The times are rank 0's, or the lowest survivor's when rank 0's job
	// body was the victim.
	for rank := 0; rank < n; rank++ {
		if rep := reports[rank]; !rep.Killed {
			result.VirtualSeconds, result.WallSeconds = rep.Virtual, rep.Wall
			break
		}
	}
	if jobErr != nil {
		d.finishJob(id, nil, jobErr)
		pj.resp <- response{Error: fmt.Sprintf("job %d: %v", id, jobErr), Code: codeFailed}
		return
	}
	d.finishJob(id, result, nil)
	pj.resp <- response{OK: true, Result: result}
}

// finishJob records a job's outcome in the registry, the counters and
// the flight recorder, and releases its routing channels.
func (d *Daemon) finishJob(id uint32, result *JobResult, err error) {
	phase := int64(flightJobDone)
	d.endJob(id, func(s *JobStatus) {
		if err != nil {
			s.State = StateFailed
			s.Err = err.Error()
		} else {
			s.State = StateDone
			s.Digests = result.Digests
			s.Evicted = result.Evicted
		}
	})
	if err != nil {
		phase = flightJobFail
		mJobsFailed.Inc()
		d.opt.Logf("serve: job %d failed: %v", id, err)
	} else {
		mJobsCompleted.Inc()
		d.opt.Logf("serve: job %d done (%d digests)", id, len(result.Digests))
	}
	telemetry.Flight().Record(d.opt.Rank, telemetry.FlightJob, int64(id), phase, 0, 0)
}

// ---------------------------------------------------------------------
// Mesh control plane: the job-frame handler every rank runs. Handlers
// execute on the reader goroutine of the originating connection, so
// everything here is non-blocking: channel sends into buffers sized for
// the mesh, map updates under a short lock, goroutine spawns.

func (d *Daemon) handleJobFrame(from int, job uint32, kind byte, payload []byte) {
	switch kind {
	case kStart:
		d.onStart(job, payload)
	case kReady:
		d.mu.Lock()
		js := d.jobs[job]
		d.mu.Unlock()
		if js != nil && js.ready != nil {
			select {
			case js.ready <- from:
			default:
			}
		}
	case kGo:
		d.mu.Lock()
		js := d.jobs[job]
		d.mu.Unlock()
		if js != nil && js.goCh != nil {
			select {
			case <-js.goCh: // already released
			default:
				close(js.goCh)
			}
		}
	case kDone:
		var rep rankReport
		if err := json.Unmarshal(payload, &rep); err != nil {
			d.opt.Logf("serve: job %d: bad done report from rank %d: %v", job, from, err)
			return
		}
		d.mu.Lock()
		js := d.jobs[job]
		d.mu.Unlock()
		if js != nil && js.done != nil {
			select {
			case js.done <- rep:
			default:
			}
		}
	}
}

// onStart is a worker's admission path: open the job's session (ordered
// — kStart frames arrive on the rank-0 connection in ID order, and this
// runs on its reader goroutine), register the job, and hand the rest to
// a goroutine that waits for the go signal.
func (d *Daemon) onStart(job uint32, payload []byte) {
	var spec JobSpec
	if err := json.Unmarshal(payload, &spec); err != nil {
		d.opt.Logf("serve: job %d: bad spec: %v", job, err)
		return
	}
	sess, err := d.tr.Session(job)
	if err != nil {
		d.opt.Logf("serve: job %d: session: %v", job, err)
		return
	}
	js := &jobState{
		status: JobStatus{ID: job, State: StateRunning, Op: spec.Op, Backend: spec.Backend, Bytes: spec.MessageBytes},
		goCh:   make(chan struct{}),
	}
	d.addJob(js)
	telemetry.Flight().Record(d.opt.Rank, telemetry.FlightJob, int64(job), flightJobStart, 0, 0)
	if err := d.tr.SendJob(0, job, kReady, nil); err != nil {
		d.opt.Logf("serve: job %d: ready: %v", job, err)
		sess.Close()
		d.endJob(job, func(s *JobStatus) { s.State = StateFailed; s.Err = "ready: " + err.Error() })
		mJobsFailed.Inc()
		return
	}
	d.wg.Add(1)
	go d.runWorker(sess, job, spec, js)
}

// runWorker executes one job on a worker rank: wait for the scheduler's
// go, run the collective on the job's session, report back.
func (d *Daemon) runWorker(sess hzccl.Transport, job uint32, spec JobSpec, js *jobState) {
	defer d.wg.Done()
	deadline := time.NewTimer(d.opt.JobTimeout)
	defer deadline.Stop()
	select {
	case <-js.goCh:
	case <-deadline.C:
		sess.Close()
		d.endJob(job, func(s *JobStatus) { s.State = StateFailed; s.Err = "go signal never arrived" })
		mJobsFailed.Inc()
		return
	case <-d.closed:
		sess.Close()
		return
	}
	rep := d.runJob(sess, spec)
	buf, _ := json.Marshal(rep)
	if err := d.tr.SendJob(0, job, kDone, buf); err != nil {
		d.opt.Logf("serve: job %d: done report: %v", job, err)
	}
	phase := int64(flightJobDone)
	d.endJob(job, func(s *JobStatus) {
		if rep.Err != "" && !rep.Killed {
			s.State = StateFailed
			s.Err = rep.Err
			phase = flightJobFail
		} else {
			s.State = StateDone
			if rep.Digest != "" {
				s.Digests = map[string]string{strconv.Itoa(rep.Rank): rep.Digest}
			}
			s.Evicted = rep.Evicted
		}
	})
	telemetry.Flight().Record(d.opt.Rank, telemetry.FlightJob, int64(job), phase, 0, 0)
}

// ---------------------------------------------------------------------
// The collective itself.

// runJob runs the spec's collective for this rank on the given job
// session (Run, the one definition of a job) and reports its outcome.
func (d *Daemon) runJob(sess hzccl.Transport, spec JobSpec) rankReport {
	rep := rankReport{Rank: d.opt.Rank}
	digests, res, err := Run(spec, d.tr.World(), sess, d.opt.RecvTimeout, nil)
	switch {
	case errors.Is(err, hzccl.ErrRankKilled):
		// The injected crash: dying is this rank's expected outcome; the
		// survivors carry the collective.
		rep.Killed = true
	case err != nil:
		rep.Err = err.Error()
	default:
		rep.Digest = digests[d.opt.Rank]
		rep.Virtual, rep.Wall, rep.Evicted = res.Seconds, res.WallSeconds, res.Evicted
	}
	return rep
}
