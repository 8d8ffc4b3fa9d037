package serve

import (
	"fmt"
	"sync"
	"time"

	"hzccl"
	"hzccl/internal/bufpool"
	"hzccl/internal/datasets"
	"hzccl/internal/floatbytes"
	"hzccl/internal/metrics"
)

// job is a spec with its defaults applied and its names parsed.
type job struct {
	JobSpec
	backend hzccl.Backend
	algo    hzccl.Algorithm
	topo    *hzccl.Topology
}

// parse applies the spec's defaults and checks it against a world of the
// given size: the collective, backend, algorithm and topology must parse,
// the message must hold one value and a kill must name a rank of the
// world.
func (s JobSpec) parse(world int) (job, error) {
	if s.Op == "" {
		s.Op = "allreduce"
	}
	if s.Backend == "" {
		s.Backend = "hzccl"
	}
	if s.Algorithm == "" {
		s.Algorithm = "ring"
	}
	if s.MessageBytes == 0 {
		s.MessageBytes = 1 << 18
	}
	if s.RelBound == 0 {
		s.RelBound = 1e-4
	}
	if s.Dataset == "" {
		s.Dataset = "SimSet1"
	}
	j := job{JobSpec: s}
	var err error
	if s.Op != "allreduce" && s.Op != "reduce_scatter" {
		return j, fmt.Errorf("unknown op %q (want allreduce or reduce_scatter)", s.Op)
	}
	if j.backend, err = hzccl.ParseBackend(s.Backend); err != nil {
		return j, err
	}
	if j.algo, err = hzccl.ParseAlgorithm(s.Algorithm); err != nil {
		return j, err
	}
	if s.Topology != "" {
		if j.topo, err = hzccl.ParseTopology(s.Topology); err != nil {
			return j, err
		}
	}
	if s.MessageBytes < 4 {
		return j, fmt.Errorf("message_bytes %d too small", s.MessageBytes)
	}
	if s.KillRank != nil && (*s.KillRank < 0 || *s.KillRank >= world) {
		return j, fmt.Errorf("kill_rank %d out of range [0, %d)", *s.KillRank, world)
	}
	return j, nil
}

// inputKey names one job input: the field Run generates for a job.
type inputKey struct {
	dataset   string
	offset, n int
}

func (j job) inputKey() inputKey { return inputKey{j.Dataset, j.Offset, j.MessageBytes / 4} }

// sharedInput is one input that Runs in this process hold: ready closes
// once field and span, or err, are set, and refs counts the holders. span
// is metrics.Range of the field, the one pass every holder's error bound
// scales: jobs that share an input may differ in RelBound.
type sharedInput struct {
	ready chan struct{}
	field []float32
	span  float64
	err   error
	refs  int
}

// inputs is the process-wide table of the inputs some Run holds. The
// ranks of a job that run in one process ask for the same key at about
// the same time; the first generates the field, the rest wait for it, and
// all read it. The last holder's release drops the entry and returns the
// field to bufpool: nothing is cached across jobs, so a process holds only
// the inputs of its running jobs, and the next job's vectors recycle them.
var inputs = struct {
	sync.Mutex
	m map[inputKey]*sharedInput
}{m: make(map[inputKey]*sharedInput)}

// recycleInput returns an input's buffer to bufpool; tests count its calls.
var recycleInput = bufpool.PutFloat32s

// holdInput returns the field for k and its metrics.Range, generating both
// unless another Run in this process already holds them, and the release
// the caller must call when done with the field. The field is shared:
// nothing may write to it, nor read it after release. A generation error
// reaches every waiter and is not kept.
func holdInput(k inputKey) ([]float32, float64, func(), error) {
	inputs.Lock()
	in, ok := inputs.m[k]
	if !ok {
		in = &sharedInput{ready: make(chan struct{})}
		inputs.m[k] = in
	}
	in.refs++
	inputs.Unlock()
	release := func() {
		inputs.Lock()
		in.refs--
		last := in.refs == 0
		if last && inputs.m[k] == in {
			delete(inputs.m, k)
		}
		inputs.Unlock()
		if last && in.field != nil {
			recycleInput(in.field)
		}
	}
	if ok {
		<-in.ready
	} else {
		field := bufpool.Float32s(k.n)
		if in.err = datasets.FieldInto(field, k.dataset, k.offset); in.err == nil {
			in.field, in.span = field, metrics.Range(field)
			mJobInputsGenerated.Inc()
		} else {
			recycleInput(field)
			inputs.Lock()
			delete(inputs.m, k)
			inputs.Unlock()
		}
		close(in.ready)
	}
	if in.err != nil {
		release()
		return nil, 0, nil, in.err
	}
	return in.field, in.span, release, nil
}

// Run runs spec's one collective on a world of the given size and
// returns the digest of each rank's result this process ran, keyed by the
// rank's number before any shrink, with the run's result. It is the one
// definition of a job: the daemon runs every job through it, and so does
// `hzccl-collective`, so their digests compare bit for bit.
//
// fabric nil runs every rank in this process; otherwise fabric hosts this
// process's one rank (a TCP transport, or one job session of a mesh).
// Every rank reduces the same field (Dataset at Offset): the ranks that
// run in this process, whether all of them (fabric nil) or the daemon
// ranks of a job that share one process, share one generation of it, into
// recycled memory, and one pass over it for its range. Each rank's absolute
// error bound is RelBound times that range — metrics.AbsBound's bits — and
// each runs on the (2 µs, 0.4 GB/s) network model with a receive deadline of
// recvTimeout (0 selects 2 s). A
// kill in the spec runs on the self-healing transport and shrinks the
// world: the survivors evict the victim and finish without it, and on a
// fabric the victim's own call returns hzccl.ErrRankKilled. trace, when
// non-nil, records the run.
func Run(spec JobSpec, world int, fabric hzccl.Transport, recvTimeout time.Duration, trace *hzccl.Trace) (map[int]string, *hzccl.RunResult, error) {
	j, err := spec.parse(world)
	if err != nil {
		return nil, nil, err
	}
	sp := mJobInputNS.Start()
	base, span, release, err := holdInput(j.inputKey())
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	defer release()
	opt := hzccl.CollectiveOptions{ErrorBound: j.RelBound * span, Algorithm: j.algo}
	if recvTimeout <= 0 {
		recvTimeout = 2 * time.Second
	}
	cfg := hzccl.ClusterConfig{
		Ranks:          world,
		Latency:        2 * time.Microsecond,
		BandwidthBytes: 0.4e9,
		Topology:       j.topo,
		RecvTimeout:    recvTimeout,
		Transport:      fabric,
		Trace:          trace,
	}
	if j.KillRank != nil {
		cfg.Fault = hzccl.KillRank{Rank: *j.KillRank, AtStep: j.KillStep}.Fault()
		cfg.Reliable = true
		opt.Degrade = &hzccl.DegradePolicy{Shrink: true}
	}
	var mu sync.Mutex
	digests := make(map[int]string)
	res, err := hzccl.RunCluster(cfg, func(r *hzccl.Rank) error {
		id := r.ID() // a shrink renumbers the survivors
		var out []float32
		var err error
		if j.Op == "reduce_scatter" {
			out, err = r.ReduceScatter(base, j.backend, opt)
		} else {
			out, err = r.Allreduce(base, j.backend, opt)
		}
		if err != nil {
			return err
		}
		mu.Lock()
		digests[id] = fmt.Sprintf("%08x", floatbytes.Checksum(out))
		mu.Unlock()
		return nil
	})
	return digests, res, err
}
