package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hzccl"
	"hzccl/internal/datasets"
	"hzccl/internal/fzlight"
	"hzccl/internal/hzdyn"
	"hzccl/internal/metrics"
	"hzccl/serve"
)

// stopRule ends a timed pass after a fixed number of ops (warm-ups and
// tests) or, with ops == 0, once `seconds` of wall time have passed.
type stopRule struct {
	ops     int
	seconds float64
}

func (s stopRule) reached(done int, start time.Time) bool {
	if s.ops > 0 {
		return done >= s.ops
	}
	return time.Since(start).Seconds() >= s.seconds
}

func newSample(capacity int) *sample {
	return &sample{opMS: make([]float64, 0, capacity), doneAt: make([]float64, 0, capacity), opMB: make([]float64, 0, capacity)}
}

// record notes one successful op that took dt and ended now.
func (s *sample) record(dt time.Duration, start time.Time, mb float64) {
	s.opMS = append(s.opMS, dt.Seconds()*1e3)
	s.doneAt = append(s.doneAt, time.Since(start).Seconds())
	s.opMB = append(s.opMB, mb)
}

// sample is one timed pass over a workload, outputs already checked.
type sample struct {
	opMS       []float64 // per-op latency as the caller saw it (rank 0, or the submitting client), in completion order
	doneAt     []float64 // when each of those ops completed, seconds into the pass
	opMB       []float64 // per-rank input MB each reduced (raw MB, for the codec pipeline)
	wall       float64   // timed wall seconds
	attempted  int
	failed     int      // ops that errored, were refused or failed the output check
	rankOpNS   int64    // Σ over ranks of time spent inside ops; 0 when the workload is not one collective world
	errOverTol float64  // max over checked ops of |result − float64 oracle| ÷ tolerance
	digest     string   // fingerprint of the checked outputs; equal seeds give equal digests
	invalid    []string // reasons the pass must not be reported as a healthy measurement
	autoPick   string   // what Algorithm: auto resolved to, per op class
	model      *modelShape

	// What the pass left for its output check.
	first, last [][]float32        // collectives: every rank's first and last result vector
	choices     []hzccl.AlgoChoice // collectives: rank 0's resolved schedules
	jobs        []jobDone          // daemon jobs that completed
}

// quiet is the part of a timed pass the end-to-end numbers are taken
// from. The pass is cut into twenty consecutive groups of ops and the
// five that moved the most MB per second are kept. On a shared host the
// neighbours' load only ever slows a stretch of a pass down, for seconds
// at a time, so its fastest quarter is the closest a run gets to what the
// program itself costs — and it is what repeats from run to run.
type quiet struct {
	opMS     []float64 // latencies of the kept ops
	mb, wall float64   // work done and wall time spent in the kept groups
}

const (
	quietGroups = 20
	quietKept   = quietGroups / 4
)

// quiet needs a few ops per group to mean anything; a shorter pass
// (tests, warm-ups) is taken whole.
func (s *sample) quiet() quiet {
	n := len(s.opMS)
	if n < 4*quietGroups {
		return quiet{opMS: s.opMS, mb: s.totalMB(), wall: s.wall}
	}
	type group struct {
		lo, hi   int
		mb, wall float64
	}
	groups := make([]group, quietGroups)
	from := 0.0
	for g := range groups {
		lo, hi := g*n/quietGroups, (g+1)*n/quietGroups
		mb := 0.0
		for _, v := range s.opMB[lo:hi] {
			mb += v
		}
		groups[g] = group{lo, hi, mb, s.doneAt[hi-1] - from}
		from = s.doneAt[hi-1]
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].mb/groups[i].wall > groups[j].mb/groups[j].wall })
	var q quiet
	for _, g := range groups[:quietKept] {
		q.opMS = append(q.opMS, s.opMS[g.lo:g.hi]...)
		q.mb += g.mb
		q.wall += g.wall
	}
	return q
}

func (s *sample) totalMB() float64 {
	mb := 0.0
	for _, v := range s.opMB {
		mb += v
	}
	return mb
}

// modelShape is what the cost model needs to predict a collective
// workload's op time.
type modelShape struct {
	backend hzccl.Backend
	algo    hzccl.Algorithm // resolved, never auto
	topo    *hzccl.Topology
	input   []float32
	eb      float64
}

// instance is a workload after set-up: inputs generated, mesh or daemons
// formed, warm-up done. run times one pass and may be called more than
// once (the traced run times an untraced and a traced half on the same
// instance); check then verifies that pass's outputs, outside any timing
// or allocation accounting. replay, in the traced run only, calls the
// layers this workload exercises directly on the workload's own inputs
// and sizes (layers.go); s is the checked untraced half.
type instance interface {
	run(stop stopRule, tr *tracer) *sample
	check(s *sample)
	replay(b budget, tr *tracer, s *sample, out layerValues) error
	close()
}

func measure(inst instance, stop stopRule, tr *tracer) *sample {
	s := inst.run(stop, tr)
	inst.check(s)
	return s
}

type setupFunc func(seed int64, quick bool) (instance, error)

var setups = map[string]setupFunc{
	"allreduce-hz-large":    collectiveSetup(collSpec{backend: hzccl.BackendHZCCL, algo: hzccl.AlgoRing, elems: 2 << 20, class: "large", warmOps: 3}),
	"allreduce-ccoll-large": collectiveSetup(collSpec{backend: hzccl.BackendCColl, algo: hzccl.AlgoRing, elems: 2 << 20, class: "large", warmOps: 3}),
	"allreduce-mpi-large":   collectiveSetup(collSpec{backend: hzccl.BackendMPI, algo: hzccl.AlgoRing, elems: 2 << 20, class: "large", warmOps: 3}),
	"allreduce-hz-small":    collectiveSetup(collSpec{backend: hzccl.BackendHZCCL, algo: hzccl.AlgoAuto, topo: "2x2", elems: 4 << 10, class: "small", warmOps: 300}),
	"serve-mixed":           serveSetup,
	"codec-pipeline":        codecSetup,
}

// ---------------------------------------------------------------------
// Allreduce over a loopback TCP mesh.

type collSpec struct {
	backend hzccl.Backend
	algo    hzccl.Algorithm
	topo    string // "" = flat
	elems   int    // float32 elements per rank
	class   string // "large" or "small": which costmodel.auto_regret.* this message size feeds
	warmOps int
}

type collWorld struct {
	spec   collSpec
	topo   *hzccl.Topology
	opt    hzccl.CollectiveOptions
	inputs [][]float32
	oracle []float64
	maxIn  float64
	mesh   *mesh
}

func collectiveSetup(spec collSpec) setupFunc {
	return func(seed int64, quick bool) (instance, error) {
		w := &collWorld{spec: spec, inputs: make([][]float32, worldSize)}
		if quick { // tests prove the paths, not the sizes
			w.spec.warmOps, w.spec.elems = 1, min(spec.elems, 64<<10)
		}
		if spec.topo != "" {
			t, err := hzccl.ParseTopology(spec.topo)
			if err != nil {
				return nil, err
			}
			w.topo = t
		}
		// A different CESM-ATM field per rank; the seed moves the whole
		// world to another group of fields with the same statistics.
		for r := range w.inputs {
			f, err := datasets.Field("CESM-ATM", int(seed)*worldSize+r, w.spec.elems)
			if err != nil {
				return nil, err
			}
			w.inputs[r] = f
		}
		w.opt = hzccl.CollectiveOptions{ErrorBound: metrics.AbsBound(relBound, w.inputs[0]), Algorithm: spec.algo}
		m, err := formMesh(worldSize)
		if err != nil {
			return nil, err
		}
		w.mesh = m
		if s := measure(w, stopRule{ops: w.spec.warmOps}, nil); s.failed > 0 {
			w.close()
			return nil, fmt.Errorf("warm-up: %v", s.invalid)
		}
		return w, nil
	}
}

func (w *collWorld) close() { w.mesh.close() }

func (w *collWorld) run(stop stopRule, tr *tracer) *sample {
	s := newSample(1 << 16)
	// lastOp is the index of the final op. Rank 0 fixes it one op ahead
	// when the stop rule fires: no rank can finish op k+1 before rank 0
	// has entered it, so every rank reads the same value before deciding
	// whether to start op k+2.
	var lastOp atomic.Int64
	lastOp.Store(math.MaxInt64)
	if stop.ops > 0 {
		lastOp.Store(int64(stop.ops) - 1)
	}
	s.first = make([][]float32, worldSize)
	s.last = make([][]float32, worldSize)
	var rankNS atomic.Int64
	root := tr.begin("pass", 0, 0, 0)
	start := time.Now()
	results, err := w.mesh.run(modelConfig(w.topo), func(r *hzccl.Rank) error {
		id := r.ID()
		var spent time.Duration
		defer func() { rankNS.Add(int64(spent)) }()
		for k := 0; int64(k) <= lastOp.Load(); k++ {
			sp := tr.begin("Rank.Allreduce", id, k, root.id)
			t0 := time.Now()
			out, err := r.Allreduce(w.inputs[id], w.spec.backend, w.opt)
			dt := time.Since(t0)
			sp.end()
			if err != nil {
				return fmt.Errorf("rank %d op %d: %w", id, k, err)
			}
			spent += dt
			if k == 0 {
				s.first[id] = out
			}
			s.last[id] = out
			if id == 0 {
				s.record(dt, start, float64(4*w.spec.elems)/1e6)
				if stop.ops == 0 && lastOp.Load() == math.MaxInt64 && stop.reached(k+1, start) {
					lastOp.Store(int64(k) + 1)
				}
			}
		}
		return nil
	})
	s.wall = time.Since(start).Seconds()
	root.end()
	s.attempted = len(s.opMS)
	s.rankOpNS = rankNS.Load()
	if err != nil {
		s.attempted++
		s.failed++
		s.invalid = append(s.invalid, err.Error())
		return s
	}
	s.choices = results[0].AlgoChoices
	return s
}

// check holds the first and last timed op to the output rule: every
// rank's digest identical, rank 0's vector within tolerance of the
// float64 sum.
func (w *collWorld) check(s *sample) {
	if s.failed > 0 {
		return
	}
	algo := w.spec.algo
	if c := s.choices; len(c) > 0 {
		algo = c[len(c)-1].Algorithm
		if c[len(c)-1].Auto {
			s.autoPick = fmt.Sprintf("allreduce/%s/%dB=%s", w.spec.backend, 4*w.spec.elems, algo)
		}
	}
	s.model = &modelShape{backend: w.spec.backend, algo: algo, topo: w.topo, input: w.inputs[0], eb: w.opt.ErrorBound}

	if w.oracle == nil {
		w.oracle = make([]float64, w.spec.elems)
		for _, in := range w.inputs {
			for i, v := range in {
				w.oracle[i] += float64(v)
			}
			w.maxIn = math.Max(w.maxIn, maxAbs(in))
		}
	}
	tol := tolerance(w.spec.backend, algo, worldSize, w.opt.ErrorBound, w.maxIn)
	for _, outs := range [][][]float32{s.first, s.last} {
		d0 := digestHex(outs[0])
		for r := 1; r < worldSize; r++ {
			if d := digestHex(outs[r]); d != d0 {
				s.invalid = append(s.invalid, fmt.Sprintf("digest mismatch: rank 0 %s, rank %d %s", d0, r, d))
			}
		}
		s.digest = d0
		s.errOverTol = math.Max(s.errOverTol, errOverTol(outs[0], w.oracle, tol))
	}
	if s.errOverTol > 1 || len(s.invalid) > 0 {
		s.failed++
	}
	s.first, s.last = nil, nil
}

// replay: the codec on the ring block two ranks hold (C-Coll and hZCCL;
// hzdyn for hZCCL only), the pool and the fabric at the size of the
// message one ring step then sends, this flavor's four schedules with no
// sockets under them, and the root package around the workload's own op.
func (w *collWorld) replay(b budget, tr *tracer, s *sample, out layerValues) error {
	blk := w.spec.elems / worldSize
	msg := 4 * blk
	ops := b.ops(median(s.opMS))
	var alpha, beta float64
	steps := []struct {
		name string
		run  func() error
	}{
		{"codecs", func() (err error) {
			if w.spec.backend != hzccl.BackendMPI {
				msg, err = codecLayer(b, out, "cesm-atm", w.inputs[0][:blk], w.inputs[1][:blk], w.opt.ErrorBound, w.spec.backend == hzccl.BackendHZCCL)
			}
			return err
		}},
		{"bufpool", func() error { bufpoolLayer(b, msg, out); return nil }},
		{"cluster", func() (err error) {
			alpha, beta, err = fabricLayer(b, w.mesh, msg, out)
			return err
		}},
		{"core-schedules", func() error {
			return scheduleLayer(ops, w.inputs, w.opt.ErrorBound, []hzccl.Backend{w.spec.backend}, out)
		}},
		{"root+costmodel", func() error {
			if err := dispatchLayer(b, w, ops, out); err != nil {
				return err
			}
			return costModelResidual(s.model, alpha, beta, median(s.opMS), out)
		}},
	}
	for _, st := range steps {
		if err := section(tr, st.name, st.run); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Jobs through the serve daemon.

type serveWorld struct {
	daemons []*serve.Daemon
	clients []*serve.Client
	jobs    []serve.JobSpec
	next    atomic.Int64
	refs    map[int]*jobRef
}

// jobRef is the standalone in-process run of one spec: what a daemon job
// of that spec must reproduce bit for bit.
type jobRef struct {
	digests    map[string]string
	errOverTol float64
	autoPick   string
}

const serveClients = 2

// serveJobs is the fixed multiset every seed shuffles: each op, flavor,
// schedule, size and dataset combination once. The shuffle is within each
// message size, and the list then takes one job of each size in turn (in
// a shuffled order), so any stretch of the list holds the same mix of
// sizes — job time depends on size more than on anything else — and the
// groups of a pass can be compared with each other.
func serveJobs(seed int64) []serve.JobSpec {
	sizes := []int{64 << 10, 256 << 10, 1 << 20}
	bySize := make([][]serve.JobSpec, len(sizes))
	rng := rand.New(rand.NewSource(seed))
	for s, bytes := range sizes {
		for _, op := range []string{"allreduce", "reduce_scatter"} {
			for _, backend := range []string{"mpi", "ccoll", "hzccl"} {
				for _, algo := range []string{"ring", "rd", "rabenseifner", "hierarchical", "auto"} {
					for _, ds := range []string{"SimSet1", "NYX", "CESM-ATM"} {
						// Even field indices only: odd SimSet1 fields are
						// near-silent, which would let the seed change the
						// amount of work.
						bySize[s] = append(bySize[s], serve.JobSpec{Op: op, Backend: backend, Algorithm: algo, Topology: "2x2",
							MessageBytes: bytes, RelBound: relBound, Dataset: ds, Offset: 2 * rng.Intn(1<<10)})
					}
				}
			}
		}
		rng.Shuffle(len(bySize[s]), func(i, j int) { bySize[s][i], bySize[s][j] = bySize[s][j], bySize[s][i] })
	}
	var jobs []serve.JobSpec
	for i := range bySize[0] {
		for _, s := range rng.Perm(len(sizes)) {
			jobs = append(jobs, bySize[s][i])
		}
	}
	return jobs
}

func startDaemons(n int) ([]*serve.Daemon, error) {
	lns, peers, err := listenLoopback(n)
	if err != nil {
		return nil, err
	}
	ds := make([]*serve.Daemon, n)
	err = eachRank(n, func(i int) error {
		d, err := serve.Start(serve.Options{Rank: i, Peers: peers, Listener: lns[i], DialTimeout: 10 * time.Second, MaxConcurrent: 2})
		ds[i] = d
		return err
	})
	if err != nil {
		closeDaemons(ds)
		return nil, fmt.Errorf("start daemons: %w", err)
	}
	return ds, nil
}

func closeDaemons(ds []*serve.Daemon) {
	// Workers first: rank 0 going away makes every worker tear itself
	// down on its own, racing this loop.
	for i := len(ds) - 1; i >= 0; i-- {
		if ds[i] != nil {
			ds[i].Close()
		}
	}
}

func serveSetup(seed int64, quick bool) (instance, error) {
	w := &serveWorld{jobs: serveJobs(seed), refs: make(map[int]*jobRef)}
	ds, err := startDaemons(worldSize)
	if err != nil {
		return nil, err
	}
	w.daemons = ds
	for c := 0; c < serveClients; c++ {
		cl, err := serve.Dial(ds[0].ClientAddr())
		if err != nil {
			w.close()
			return nil, err
		}
		w.clients = append(w.clients, cl)
	}
	// Warm up on the head of the seed-0 list, so every seed's set-up does
	// the same work; the timed pass then starts at the head of its own.
	warm := 8
	if quick {
		warm = 2
	}
	timed := w.jobs
	w.jobs = serveJobs(0)
	s := measure(w, stopRule{ops: warm}, nil)
	w.jobs, w.refs = timed, make(map[int]*jobRef)
	if s.failed > 0 {
		w.close()
		return nil, fmt.Errorf("warm-up: %v", s.invalid)
	}
	return w, nil
}

func (w *serveWorld) close() {
	for _, c := range w.clients {
		c.Close()
	}
	closeDaemons(w.daemons)
}

type jobDone struct {
	spec    int
	digests map[string]string
}

func (w *serveWorld) run(stop stopRule, tr *tracer) *sample {
	s := newSample(1 << 12)
	// Every pass starts at the head of the job list, so the untraced and
	// the traced half of a traced run time the same jobs.
	w.next.Store(0)
	var mu sync.Mutex
	var issued atomic.Int64
	root := tr.begin("pass", 0, 0, 0)
	start := time.Now()
	var wg sync.WaitGroup
	for c, cl := range w.clients {
		wg.Add(1)
		go func(c int, cl *serve.Client) {
			defer wg.Done()
			for {
				n := int(issued.Add(1))
				if stop.reached(n-1, start) {
					return
				}
				idx := int(w.next.Add(1)-1) % len(w.jobs)
				spec := w.jobs[idx]
				sp := tr.begin("Client.Submit", c, n, root.id)
				t0 := time.Now()
				res, err := cl.Submit(spec)
				dt := time.Since(t0)
				sp.end()
				mu.Lock()
				s.attempted++
				if err != nil {
					s.failed++
					s.invalid = append(s.invalid, fmt.Sprintf("job %d: %v", idx, err))
				} else {
					s.record(dt, start, float64(spec.MessageBytes)/1e6)
					s.jobs = append(s.jobs, jobDone{idx, res.Digests})
				}
				mu.Unlock()
			}
		}(c, cl)
	}
	wg.Wait()
	s.wall = time.Since(start).Seconds()
	root.end()
	return s
}

// check: every completed job's per-rank digests equal the standalone
// in-process run of the same spec, whose vectors are in turn held to the
// float64 oracle.
func (w *serveWorld) check(s *sample) {
	picks := map[string]bool{}
	var all []string
	for _, j := range s.jobs {
		ref := w.refs[j.spec]
		if ref == nil {
			var err error
			if ref, err = standalone(w.jobs[j.spec]); err != nil {
				s.failed++
				s.invalid = append(s.invalid, fmt.Sprintf("reference for job %d: %v", j.spec, err))
				continue
			}
			w.refs[j.spec] = ref
		}
		s.errOverTol = math.Max(s.errOverTol, ref.errOverTol)
		if ref.autoPick != "" {
			picks[ref.autoPick] = true
		}
		ok := len(j.digests) == worldSize
		for rank, d := range ref.digests {
			ok = ok && j.digests[rank] == d
		}
		if !ok || ref.errOverTol > 1 {
			s.failed++
			s.invalid = append(s.invalid, fmt.Sprintf("job %d: digests %v, standalone %v, err/tol %.3g", j.spec, j.digests, ref.digests, ref.errOverTol))
		}
		all = append(all, strconv.Itoa(j.spec)+":"+j.digests["0"])
	}
	sort.Strings(all) // completion order varies; the set of (spec, digest) does not
	s.digest = fmt.Sprintf("%08x", crc32.Checksum([]byte(fmt.Sprint(all)), castagnoli))
	s.autoPick = joinKeys(picks)
}

// replay: every flavor × schedule with no sockets or daemon under it, on
// the first job's own field at the largest job size, then the daemon
// around a collective, on this workload's daemons and job list.
func (w *serveWorld) replay(b budget, tr *tracer, s *sample, out layerValues) error {
	if err := section(tr, "core-schedules", func() error {
		base, err := datasets.Field(w.jobs[0].Dataset, w.jobs[0].Offset, 256<<10)
		if err != nil {
			return err
		}
		in := [][]float32{base, base, base, base} // a daemon job gives every rank the same field
		flavors := []hzccl.Backend{hzccl.BackendMPI, hzccl.BackendCColl, hzccl.BackendHZCCL}
		return scheduleLayer(b.ops(median(s.opMS)), in, metrics.AbsBound(relBound, base), flavors, out)
	}); err != nil {
		return err
	}
	return section(tr, "serve", func() error { return serveLayer(b, w, out) })
}

// standalone runs one job spec on the in-process fabric with exactly the
// daemon's configuration (serve.Daemon.runJob) and checks the result
// against the float64 oracle.
func standalone(spec serve.JobSpec) (*jobRef, error) {
	backend := map[string]hzccl.Backend{"mpi": hzccl.BackendMPI, "ccoll": hzccl.BackendCColl, "hzccl": hzccl.BackendHZCCL}[spec.Backend]
	algo, err := hzccl.ParseAlgorithm(spec.Algorithm)
	if err != nil {
		return nil, err
	}
	topo, err := hzccl.ParseTopology(spec.Topology)
	if err != nil {
		return nil, err
	}
	base, err := datasets.Field(spec.Dataset, spec.Offset, spec.MessageBytes/4)
	if err != nil {
		return nil, err
	}
	opt := hzccl.CollectiveOptions{ErrorBound: metrics.AbsBound(spec.RelBound, base), Algorithm: algo}
	cfg := hzccl.ClusterConfig{Ranks: worldSize, Latency: modelLatency, BandwidthBytes: modelBandwidth, Topology: topo, RecvTimeout: 2 * time.Second}
	outs := make([][]float32, worldSize)
	owned := make([][2]int, worldSize)
	res, err := hzccl.RunCluster(cfg, func(r *hzccl.Rank) error {
		var out []float32
		var err error
		if spec.Op == "reduce_scatter" {
			out, err = r.ReduceScatter(base, backend, opt)
			_, s, e := r.OwnedBlock(len(base))
			owned[r.ID()] = [2]int{s, e}
		} else {
			out, err = r.Allreduce(base, backend, opt)
			owned[r.ID()] = [2]int{0, len(base)}
		}
		outs[r.ID()] = out
		return err
	})
	if err != nil {
		return nil, err
	}
	ref := &jobRef{digests: make(map[string]string)}
	resolved := res.AlgoChoices[0].Algorithm
	if res.AlgoChoices[0].Auto {
		ref.autoPick = fmt.Sprintf("%s/%s/%dB=%s", spec.Op, backend, spec.MessageBytes, resolved)
	}
	oracle := make([]float64, len(base))
	for i, v := range base {
		oracle[i] = worldSize * float64(v)
	}
	tol := tolerance(backend, resolved, worldSize, opt.ErrorBound, maxAbs(base))
	for rank, out := range outs {
		ref.digests[strconv.Itoa(rank)] = digestHex(out)
		s, e := owned[rank][0], owned[rank][1]
		if len(out) != e-s {
			return nil, fmt.Errorf("rank %d returned %d values for block [%d,%d)", rank, len(out), s, e)
		}
		ref.errOverTol = math.Max(ref.errOverTol, errOverTol(out, oracle[s:e], tol))
	}
	return ref, nil
}

// ---------------------------------------------------------------------
// The codec pipeline, no communication.

type codecField struct {
	slug   string
	a, b   []float32
	params fzlight.Params
	ca, cb []byte
	sum    []byte
	out    []float32
}

type codecWorld struct{ fields []*codecField }

const codecElems = 1 << 20 // 4 MiB per field

func codecSetup(seed int64, quick bool) (instance, error) {
	w := &codecWorld{}
	for _, d := range datasetSlugs {
		// Fields come in (even, odd) pairs because three generators give
		// odd fields a different character; the seed picks the pair.
		f := &codecField{slug: d.Slug}
		var err error
		if f.a, err = datasets.Field(d.Name, 2*int(seed), codecElems); err != nil {
			return nil, err
		}
		if f.b, err = datasets.Field(d.Name, 2*int(seed)+1, codecElems); err != nil {
			return nil, err
		}
		f.params = fzlight.Params{ErrorBound: metrics.AbsBound(relBound, f.a)}
		bound := fzlight.CompressBound(codecElems, f.params)
		f.ca, f.cb = make([]byte, bound), make([]byte, bound)
		f.sum = make([]byte, hzdyn.AddBound(bound, bound))
		f.out = make([]float32, codecElems)
		w.fields = append(w.fields, f)
	}
	if s := measure(w, stopRule{ops: 1}, nil); s.failed > 0 {
		return nil, fmt.Errorf("warm-up: %v", s.invalid)
	}
	return w, nil
}

func (w *codecWorld) close() {}

// op pushes one field pair through compress, compress, homomorphic add,
// decompress.
func (f *codecField) op(tr *tracer, k, parent int) error {
	sp := tr.begin("fzlight.CompressInto", 0, k, parent)
	na, err := fzlight.CompressInto(f.ca, f.a, f.params)
	sp.end()
	if err != nil {
		return err
	}
	sp = tr.begin("fzlight.CompressInto", 0, k, parent)
	nb, err := fzlight.CompressInto(f.cb, f.b, f.params)
	sp.end()
	if err != nil {
		return err
	}
	sp = tr.begin("hzdyn.AddInto", 0, k, parent)
	ns, _, err := hzdyn.AddInto(f.sum, f.ca[:na], f.cb[:nb])
	sp.end()
	if err != nil {
		return err
	}
	sp = tr.begin("fzlight.DecompressInto", 0, k, parent)
	err = fzlight.DecompressInto(f.sum[:ns], f.out)
	sp.end()
	return err
}

func (w *codecWorld) run(stop stopRule, tr *tracer) *sample {
	s := newSample(1 << 12)
	root := tr.begin("pass", 0, 0, 0)
	start := time.Now()
	for k := 0; !stop.reached(k, start); k++ {
		sp := tr.begin("op", 0, k, root.id)
		t0 := time.Now()
		var err error
		for _, f := range w.fields {
			if e := f.op(tr, k, sp.id); e != nil {
				err = errors.Join(err, fmt.Errorf("%s: %w", f.slug, e))
			}
		}
		dt := time.Since(t0)
		sp.end()
		s.attempted++
		if err != nil {
			s.failed++
			s.invalid = append(s.invalid, err.Error())
			continue
		}
		s.record(dt, start, float64(len(w.fields))*2*4*codecElems/1e6)
	}
	s.wall = time.Since(start).Seconds()
	root.end()
	return s
}

// check, on the last op's buffers: the decompressed homomorphic sum is
// within 2·eb (one quantisation per operand) plus float32 rounding of a+b.
func (w *codecWorld) check(s *sample) {
	sum := uint32(0)
	for _, f := range w.fields {
		tol := 2*f.params.ErrorBound + (maxAbs(f.a)+maxAbs(f.b))*math.Pow(2, -22)
		want := make([]float64, codecElems)
		for i := range want {
			want[i] = float64(f.a[i]) + float64(f.b[i])
		}
		s.errOverTol = math.Max(s.errOverTol, errOverTol(f.out, want, tol))
		sum ^= digest32(f.out)
	}
	s.digest = fmt.Sprintf("%08x", sum)
	if s.errOverTol > 1 {
		s.failed++
		s.invalid = append(s.invalid, fmt.Sprintf("codec result off by %.3g × tolerance", s.errOverTol))
	}
}

// replay: the bit-packing kernels, then fzlight and hzdyn on each of the
// workload's five field pairs and the paper's baseline codecs on its
// CESM-ATM field.
func (w *codecWorld) replay(b budget, tr *tracer, _ *sample, out layerValues) error {
	if err := section(tr, "bitio", func() error { bitioLayer(b, out); return nil }); err != nil {
		return err
	}
	return section(tr, "codecs", func() error {
		for _, f := range w.fields {
			if _, err := codecLayer(b, out, f.slug, f.a, f.b, f.params.ErrorBound, true); err != nil {
				return err
			}
			if f.slug == "cesm-atm" {
				if err := baselineLayer(b, out, f.a, f.params.ErrorBound); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

func joinKeys(m map[string]bool) string {
	return strings.Join(slices.Sorted(maps.Keys(m)), " ")
}
