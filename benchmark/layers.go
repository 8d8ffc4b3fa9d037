package main

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"hzccl"
	"hzccl/internal/bitio"
	"hzccl/internal/bufpool"
	"hzccl/internal/costmodel"
	"hzccl/internal/fzlight"
	"hzccl/internal/hzdyn"
	"hzccl/internal/ompszp"
	"hzccl/internal/szx"
	"hzccl/internal/telemetry"
	"hzccl/serve"
)

// The replay half of the traced run: after a workload's two timed halves,
// the layers that workload exercises are called directly, through their
// exported functions, on the workload's own inputs, block sizes and message
// sizes, so each layer has a rate of its own to set against that
// workload's end-to-end numbers. A layer the workload does not touch is not
// replayed there: its metrics are left out of layerValues and read 0 in
// that workload's result (runInfo.Unmeasured lists them). Which workload
// replays what is in each instance's replay method (workloads.go).

// budget sizes the replay. The full budget keeps a traced run's replay
// within a few seconds; the quick one only proves every path runs (tests).
type budget struct {
	kernel      time.Duration // timing budget of one codec or bit-packing kernel
	msgs        int           // point-to-point round trips per fabric measurement
	streamBytes int           // payload bytes one streaming measurement moves
	collective  time.Duration // timed Allreduce calls per measurement, as wall time at the workload's own op time
	jobs        int           // daemon jobs per serve measurement
}

var (
	fullBudget  = budget{kernel: 40 * time.Millisecond, msgs: 1000, streamBytes: 64 << 20, collective: 300 * time.Millisecond, jobs: 100}
	quickBudget = budget{kernel: 500 * time.Microsecond, msgs: 16, streamBytes: 64 << 10, jobs: 5}
)

// ops turns the collective budget into a count every rank can agree on
// ahead of time, from the op time the workload's untraced half measured.
func (b budget) ops(opMS float64) int {
	if opMS <= 0 {
		return 1
	}
	return min(max(int(b.collective.Seconds()*1e3/opMS), 1), 200)
}

// count is how many msg-sized payloads fit the byte budget, within
// [lo, hi] messages.
func count(bytes, msg, lo, hi int) int {
	return min(max(bytes/msg, lo), hi)
}

// layerValues holds the per-layer metrics a traced run measured, by name.
type layerValues map[string]float64

// section runs one part of a workload's replay under a span of its own.
func section(tr *tracer, name string, run func() error) error {
	sp := tr.begin("replay:"+name, 0, 0, 0)
	err := run()
	sp.end()
	if err != nil {
		return fmt.Errorf("replay %s: %w", name, err)
	}
	return nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// allocsPer returns heap allocations per call of f in steady state.
func allocsPer(n int, f func()) float64 {
	f()
	m0 := mallocs()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(mallocs()-m0) / float64(n)
}

// bitioLayer times the bit-packing kernels one 32-value block at a time.
// Rates are in raw-equivalent MB/s: a block stands for 128 bytes of
// int32 values whatever its packed width.
func bitioLayer(b budget, out layerValues) {
	const blockMB = 128.0 / 1e6
	const slack = 8 // the kernels may load and store this far past a block
	rng := rand.New(rand.NewSource(1))
	block := func(c int) (mags [32]uint32, sign uint32, payload []byte) {
		for i := range mags {
			mags[i] = rng.Uint32() & (1<<uint(c) - 1)
		}
		mags[0] |= 1 << uint(c-1)
		payload = make([]byte, 32*(c/8)+4*(c%8)+slack)
		bitio.PackMags32(payload, &mags, c)
		return mags, rng.Uint32(), payload
	}
	per := b.kernel / 8
	var pack, unpack, narrow, word []float64
	for c := 1; c <= 30; c++ {
		ma, sa, pa := block(c)
		_, sb, pb := block(c)
		dst := make([]byte, 5+4*32+slack)
		var d [32]int32
		var sum [32]uint32
		pack = append(pack, blockMB/perCall(per, func() { bitio.PackMags32(dst, &ma, c) }))
		unpack = append(unpack, blockMB/perCall(per, func() { bitio.UnpackDeltas32(pa, sa, c, &d) }))
		if c <= 6 {
			narrow = append(narrow, blockMB/perCall(per, func() { bitio.AddBlocks32Narrow(dst, pa, pb, sa, sb, c, c) }))
			continue
		}
		word = append(word, blockMB/perCall(per, func() {
			bitio.UnpackDeltas32(pa, sa, c, &d)
			if _, or := bitio.UnpackAddMags32(pb, sb, c, &d, &sum); or != 0 {
				bitio.PackMags32(dst, &sum, bits.Len32(or))
			}
		}))
	}
	out["bitio.pack_mbps"] = geomean(pack)
	out["bitio.unpack_mbps"] = geomean(unpack)
	out["bitio.addnarrow_mbps"] = geomean(narrow)
	out["bitio.addword_mbps"] = geomean(word)
}

// codecLayer times fzlight, and with add hzdyn, on one pair of a
// workload's fields: x and y are what the workload hands the codec in one
// call (a ring block, or a whole pipeline field). It returns x's
// compressed size, which is what the workload then puts on the wire.
func codecLayer(b budget, out layerValues, slug string, x, y []float32, eb float64, add bool) (int, error) {
	mb := float64(4*len(x)) / 1e6
	p := fzlight.Params{ErrorBound: eb}
	cx := make([]byte, fzlight.CompressBound(len(x), p))
	cy := make([]byte, len(cx))
	nx, err := fzlight.CompressInto(cx, x, p)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", slug, err)
	}
	ny, err := fzlight.CompressInto(cy, y, p)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", slug, err)
	}
	back := make([]float32, len(x))
	compress := func() { fzlight.CompressInto(cx, x, p) }
	decompress := func() { fzlight.DecompressInto(cx[:nx], back) }
	out["fzlight.compress_mbps."+slug] = mb / perCall(b.kernel, compress)
	out["fzlight.decompress_mbps."+slug] = mb / perCall(b.kernel, decompress)
	out["fzlight.ratio."+slug] = float64(4*len(x)) / float64(nx)
	if slug == "cesm-atm" { // every codec workload has a CESM-ATM field
		out["fzlight.compress_allocs_per_op"] = allocsPer(10, compress)
		out["fzlight.decompress_allocs_per_op"] = allocsPer(10, decompress)
	}
	if !add {
		return nx, nil
	}
	sum := make([]byte, hzdyn.AddBound(nx, ny))
	_, st, err := hzdyn.AddInto(sum, cx[:nx], cy[:ny])
	if err != nil {
		return 0, fmt.Errorf("%s add: %w", slug, err)
	}
	addFn := func() { hzdyn.AddInto(sum, cx[:nx], cy[:ny]) }
	out["hzdyn.add_mbps."+slug] = mb / perCall(b.kernel, addFn)
	out["hzdyn.frac_p4."+slug] = st.Fraction(hzdyn.PipelineBothEncoded)
	if slug == "cesm-atm" {
		out["hzdyn.add_allocs_per_op"] = allocsPer(10, addFn)
	}
	return nx, nil
}

// baselineLayer times the paper's two baseline codecs on one field.
func baselineLayer(b budget, out layerValues, x []float32, eb float64) error {
	mb := float64(4*len(x)) / 1e6
	back := make([]float32, len(x))

	op := ompszp.Params{ErrorBound: eb}
	oc := make([]byte, ompszp.CompressBound(len(x), op))
	on, err := ompszp.CompressInto(oc, x, op)
	if err != nil {
		return err
	}
	oh, err := ompszp.ParseHeader(oc[:on])
	if err != nil {
		return err
	}
	out["ompszp.compress_mbps"] = mb / perCall(b.kernel, func() { ompszp.CompressInto(oc, x, op) })
	out["ompszp.decompress_mbps"] = mb / perCall(b.kernel, func() { ompszp.DecompressInto(back, oc[:on], oh, 1) })

	sp := szx.Params{ErrorBound: eb}
	sc := make([]byte, szx.CompressBound(len(x), sp.BlockSize))
	sn, err := szx.CompressInto(sc, x, sp)
	if err != nil {
		return err
	}
	out["szx.compress_mbps"] = mb / perCall(b.kernel, func() { szx.CompressInto(sc, x, sp) })
	out["szx.decompress_mbps"] = mb / perCall(b.kernel, func() { szx.DecompressInto(back, sc[:sn]) })
	return nil
}

// bufpoolLayer times one get/put of the buffer size the workload's
// receives draw from the pool.
func bufpoolLayer(b budget, size int, out layerValues) {
	out["bufpool.getput_ns"] = 1e9 * perCall(b.kernel, func() { bufpool.PutBytes(bufpool.Bytes(size)) })
}

var flavorSlug = map[hzccl.Backend]string{hzccl.BackendMPI: "mpi", hzccl.BackendCColl: "ccoll", hzccl.BackendHZCCL: "hz"}

var fixedAlgos = []struct {
	slug string
	a    hzccl.Algorithm
}{{"ring", hzccl.AlgoRing}, {"rd", hzccl.AlgoRecursiveDoubling}, {"rabenseifner", hzccl.AlgoRabenseifner}, {"hierarchical", hzccl.AlgoHierarchical}}

// topo2x2 is the topology the schedule comparisons run under: it only
// matters to the hierarchical schedule and to auto, which need one.
var topo2x2 = hzccl.UniformTopology(2, 2)

// allreduceP50 is rank 0's median op time (ms) over `ops` back-to-back
// Allreduce calls after one untimed call, on whatever fabric run drives.
func allreduceP50(run func(body func(*hzccl.Rank) error) error, in [][]float32, b hzccl.Backend, opt hzccl.CollectiveOptions, ops int) (float64, error) {
	var ms []float64
	err := run(func(r *hzccl.Rank) error {
		for k := 0; k <= ops; k++ {
			t0 := time.Now()
			if _, err := r.Allreduce(in[r.ID()], b, opt); err != nil {
				return err
			}
			if r.ID() == 0 && k > 0 {
				ms = append(ms, time.Since(t0).Seconds()*1e3)
			}
		}
		return nil
	})
	return median(ms), err
}

// scheduleLayer runs the given flavors × every fixed schedule on the
// in-process fabric with the workload's inputs: what a schedule costs
// with no sockets under it.
func scheduleLayer(ops int, in [][]float32, eb float64, flavors []hzccl.Backend, out layerValues) error {
	cfg := modelConfig(topo2x2)
	cfg.Ranks = worldSize
	inproc := func(body func(*hzccl.Rank) error) error {
		_, err := hzccl.RunCluster(cfg, body)
		return err
	}
	for _, f := range flavors {
		for _, a := range fixedAlgos {
			ms, err := allreduceP50(inproc, in, f, hzccl.CollectiveOptions{ErrorBound: eb, Algorithm: a.a}, ops)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", flavorSlug[f], a.slug, err)
			}
			out["core.allreduce_ms."+flavorSlug[f]+"."+a.slug] = ms
		}
	}
	return nil
}

// p2p is the point-to-point script both fabrics run: 8-byte ping-pong
// between ranks 0 and 1, a one-way stream of msg-byte payloads, a
// simultaneous ring step of msg bytes on every rank, and barriers. msg is
// what the workload sends in one ring step. Rank 0 records.
type p2p struct {
	msgs, msg, streamBytes             int
	pingpongUS, streamMBps, ringstepUS float64
	barrierUS, allocsPerMsg, wireOver  float64
}

func (p *p2p) body(r *hzccl.Rank) error {
	id, n := r.ID(), r.Size()
	small := make([]byte, 8)
	payload := make([]byte, p.msg)
	recv := func(from int) error {
		got, err := r.Recv(from)
		bufpool.PutBytes(got) // consumed, as the collectives do
		return err
	}
	step := func(stage func() error) error {
		if err := r.Barrier(); err != nil {
			return err
		}
		return stage()
	}
	bytesOut := telemetry.C("cluster.transport.bytes_out")

	if err := step(func() error {
		if id > 1 {
			return nil
		}
		m0, t0 := mallocs(), time.Now()
		for i := 0; i < p.msgs; i++ {
			if id == 0 {
				if err := r.Send(1, small); err != nil {
					return err
				}
			}
			if err := recv(1 - id); err != nil {
				return err
			}
			if id == 1 {
				if err := r.Send(0, small); err != nil {
					return err
				}
			}
		}
		if id == 0 {
			p.pingpongUS = time.Since(t0).Seconds() * 1e6 / float64(p.msgs)
			p.allocsPerMsg = float64(mallocs()-m0) / float64(2*p.msgs)
		}
		return nil
	}); err != nil {
		return err
	}

	streamed := count(p.streamBytes, p.msg, 4, p.msgs)
	if err := step(func() error {
		switch id {
		case 0:
			b0, t0 := bytesOut.Value(), time.Now()
			for i := 0; i < streamed; i++ {
				if err := r.Send(1, payload); err != nil {
					return err
				}
			}
			if err := recv(1); err != nil { // the receiver has consumed everything
				return err
			}
			sent := float64(streamed * p.msg)
			p.streamMBps = sent / 1e6 / time.Since(t0).Seconds()
			p.wireOver = float64(bytesOut.Value()-b0)/sent - 1
		case 1:
			for i := 0; i < streamed; i++ {
				if err := recv(0); err != nil {
					return err
				}
			}
			return r.Send(0, small)
		}
		return nil
	}); err != nil {
		return err
	}

	steps := count(p.streamBytes/n, p.msg, 2, p.msgs/4+1)
	if err := step(func() error {
		t0 := time.Now()
		for i := 0; i < steps; i++ {
			if err := r.Send((id+1)%n, payload); err != nil {
				return err
			}
			if err := recv((id + n - 1) % n); err != nil {
				return err
			}
		}
		if id == 0 {
			p.ringstepUS = time.Since(t0).Seconds() * 1e6 / float64(steps)
		}
		return nil
	}); err != nil {
		return err
	}

	return step(func() error {
		t0 := time.Now()
		for i := 0; i < p.msgs/4+1; i++ {
			if err := r.Barrier(); err != nil {
				return err
			}
		}
		if id == 0 {
			p.barrierUS = time.Since(t0).Seconds() * 1e6 / float64(p.msgs/4+1)
		}
		return nil
	})
}

// fabricLayer measures the transport under a collective workload: the
// p2p script with the workload's message size on its own mesh (strict
// and reliable) and on the in-process fabric, mesh formation, and what
// opening a session and entering RunCluster cost. It returns the measured
// one-way latency (s) and stream bandwidth (B/s) of the TCP fabric, which
// the cost-model residual is computed with.
func fabricLayer(b budget, m *mesh, msg int, out layerValues) (alpha, beta float64, err error) {
	tcp := &p2p{msgs: b.msgs, msg: msg, streamBytes: b.streamBytes}
	if _, err := m.run(modelConfig(nil), tcp.body); err != nil {
		return 0, 0, fmt.Errorf("tcp p2p: %w", err)
	}
	out["cluster.tcp.pingpong_us"] = tcp.pingpongUS
	out["cluster.tcp.stream_mbps"] = tcp.streamMBps
	out["cluster.tcp.ringstep_us"] = tcp.ringstepUS
	out["cluster.tcp.barrier_us"] = tcp.barrierUS
	out["cluster.tcp.allocs_per_msg"] = tcp.allocsPerMsg
	out["cluster.tcp.wire_overhead_frac"] = tcp.wireOver

	rel := *tcp
	cfg := modelConfig(nil)
	cfg.Reliable = true
	if _, err := m.run(cfg, rel.body); err != nil {
		return 0, 0, fmt.Errorf("reliable p2p: %w", err)
	}
	out["cluster.tcp.reliable_stream_mbps"] = rel.streamMBps

	ch := *tcp
	cfg = modelConfig(nil)
	cfg.Ranks = 2
	if _, err := hzccl.RunCluster(cfg, ch.body); err != nil {
		return 0, 0, fmt.Errorf("chan p2p: %w", err)
	}
	out["cluster.chan.pingpong_us"] = ch.pingpongUS
	out["cluster.chan.stream_mbps"] = ch.streamMBps

	var setupMS []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		fresh, err := formMesh(worldSize)
		if err != nil {
			return 0, 0, err
		}
		setupMS = append(setupMS, time.Since(t0).Seconds()*1e3)
		fresh.close()
	}
	out["cluster.tcp.mesh_setup_ms"] = median(setupMS)

	// Session open and an empty RunCluster body on it, every rank at its
	// own pace as daemon ranks do.
	iters := b.msgs/5 + 2
	base := m.job
	m.job += uint32(iters)
	var openUS, runUS []float64
	err = eachRank(worldSize, func(rank int) error {
		for i := 1; i <= iters; i++ {
			t0 := time.Now()
			sess, err := m.trs[rank].Session(base + uint32(i))
			if err != nil {
				return err
			}
			t1 := time.Now()
			c := modelConfig(nil)
			c.Ranks, c.Transport = worldSize, sess
			if _, err := hzccl.RunCluster(c, func(*hzccl.Rank) error { return nil }); err != nil {
				return err
			}
			if rank == 0 {
				openUS = append(openUS, t1.Sub(t0).Seconds()*1e6)
				runUS = append(runUS, time.Since(t1).Seconds()*1e6)
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, fmt.Errorf("session cycle: %w", err)
	}
	out["cluster.tcp.session_open_us"] = median(openUS)
	out["root.runcluster_us"] = median(runUS)
	return tcp.pingpongUS / 2 / 1e6, tcp.streamMBps * 1e6, nil
}

// dispatchLayer prices the root package around the workload's own op, on
// the workload's mesh: what telemetry costs it, what Algorithm: auto costs
// against the best fixed schedule, and — on a 16 KiB head of the same
// inputs, where a fixed cost is not lost in the op's own variation — what
// arming a DegradePolicy adds to a healthy op (the post-op agreement
// round) and what the root package does before any schedule runs: a
// one-rank MPI Allreduce with auto does validation, BeginOp, cost-model
// selection and dispatch, then returns a copy of its input.
func dispatchLayer(b budget, w *collWorld, ops int, out layerValues) error {
	p50 := func(topo *hzccl.Topology, in [][]float32, opt hzccl.CollectiveOptions, ops int) (float64, error) {
		return allreduceP50(func(body func(*hzccl.Rank) error) error {
			_, err := w.mesh.run(modelConfig(topo), body)
			return err
		}, in, w.spec.backend, opt, ops)
	}

	on, err := p50(w.topo, w.inputs, w.opt, ops)
	if err != nil {
		return err
	}
	telemetry.SetEnabled(false)
	off, err := p50(w.topo, w.inputs, w.opt, ops)
	telemetry.SetEnabled(true)
	if err != nil {
		return err
	}
	out["telemetry.overhead_frac"] = (on - off) / off

	best := 0.0
	for _, a := range fixedAlgos {
		ms, err := p50(topo2x2, w.inputs, hzccl.CollectiveOptions{ErrorBound: w.opt.ErrorBound, Algorithm: a.a}, ops)
		if err != nil {
			return err
		}
		if best == 0 || ms < best {
			best = ms
		}
	}
	auto, err := p50(topo2x2, w.inputs, hzccl.CollectiveOptions{ErrorBound: w.opt.ErrorBound, Algorithm: hzccl.AlgoAuto}, ops)
	if err != nil {
		return err
	}
	out["costmodel.auto_regret."+w.spec.class] = auto / best

	head := make([][]float32, worldSize)
	for r, in := range w.inputs {
		head[r] = in[:min(len(in), 4<<10)]
	}
	headOps := b.msgs/5 + 1
	plain, err := p50(w.topo, head, w.opt, headOps)
	if err != nil {
		return err
	}
	armed := w.opt
	armed.Degrade = &hzccl.DegradePolicy{}
	agreed, err := p50(w.topo, head, armed, headOps)
	if err != nil {
		return err
	}
	out["root.degrade_agree_us"] = (agreed - plain) * 1e3

	opt := hzccl.CollectiveOptions{Algorithm: hzccl.AlgoAuto}
	_, err = hzccl.RunCluster(hzccl.ClusterConfig{Ranks: 1}, func(r *hzccl.Rank) error {
		var opErr error
		out["root.dispatch_us"] = 1e6 * perCall(b.kernel, func() {
			if _, err := r.Allreduce(head[0], hzccl.BackendMPI, opt); err != nil {
				opErr = err
			}
		})
		return opErr
	})
	return err
}

// measureElems caps the sample costmodel.Measure calibrates on.
const measureElems = 256 << 10

// costModelResidual calibrates the cost model on the workload's own
// input and the fabric as just measured, and sets its prediction against
// the measured median op time.
func costModelResidual(shape *modelShape, alpha, beta, measuredMS float64, out layerValues) error {
	n := min(len(shape.input), measureElems)
	t0 := time.Now()
	rates, err := costmodel.Measure(shape.input[:n], shape.eb, time.Duration(alpha*1e9), beta)
	out["costmodel.measure_ms"] = time.Since(t0).Seconds() * 1e3
	if err != nil {
		return err
	}
	topo := costmodel.FlatTopo(worldSize)
	if shape.topo != nil {
		topo = costmodel.Topo{Nodes: shape.topo.Nodes(), MaxNode: shape.topo.MaxNodeSize()}
	}
	cb := map[hzccl.Backend]costmodel.Backend{hzccl.BackendMPI: costmodel.Plain, hzccl.BackendCColl: costmodel.CColl, hzccl.BackendHZCCL: costmodel.HZCCL}[shape.backend]
	predictedMS := 1e3 * rates.AllreduceAlgo(cb, shape.algo, worldSize, float64(4*len(shape.input)), topo)
	if measuredMS > 0 {
		out["costmodel.residual_frac"] = (predictedMS - measuredMS) / measuredMS
	}
	return nil
}

// serveLayer prices the daemon around a collective, on the workload's own
// daemons and clients: no-op jobs measure queue and handshake alone, and
// the head of the workload's own job list what a submission adds to the
// collective it runs.
func serveLayer(b budget, w *serveWorld, out layerValues) error {
	dials := telemetry.C("cluster.transport.dials")
	rejected := telemetry.C("serve.jobs.rejected_queue_full")
	d0, r0, jobs := dials.Value(), rejected.Value(), 0

	var mu sync.Mutex
	// drain has each of the first c clients submit n jobs back to back
	// and returns jobs/s; record sees every result.
	drain := func(c, n int, spec func(j int) serve.JobSpec, record func(ms float64, res *serve.JobResult)) (float64, error) {
		t0 := time.Now()
		err := eachRank(c, func(i int) error {
			for j := 0; j < n; j++ {
				s := time.Now()
				res, err := w.clients[i].Submit(spec(j))
				if err != nil {
					return err
				}
				mu.Lock()
				record(time.Since(s).Seconds()*1e3, res)
				mu.Unlock()
			}
			return nil
		})
		jobs += c * n
		return float64(c*n) / time.Since(t0).Seconds(), err
	}
	var noopMS []float64
	noop := func(int) serve.JobSpec { return serve.JobSpec{MessageBytes: 4 << 10, RelBound: relBound} }
	keep := func(ms float64, _ *serve.JobResult) { noopMS = append(noopMS, ms) }
	var err error
	if out["serve.jobs_per_s.c1"], err = drain(1, b.jobs, noop, keep); err != nil {
		return err
	}
	out["serve.submit_p50_ms.noop"] = median(noopMS)
	if out["serve.jobs_per_s.c2"], err = drain(serveClients, b.jobs, noop, keep); err != nil {
		return err
	}
	out["serve.submit_p99_ms"] = percentile(noopMS, 0.99)

	var overMS []float64
	own := func(j int) serve.JobSpec { return w.jobs[j%len(w.jobs)] }
	if _, err = drain(1, b.jobs/2+1, own, func(ms float64, res *serve.JobResult) {
		overMS = append(overMS, ms-res.WallSeconds*1e3)
	}); err != nil {
		return err
	}
	out["serve.overhead_ms"] = median(overMS)
	out["serve.dials_per_job"] = float64(dials.Value()-d0) / float64(jobs)
	out["serve.rejected"] = float64(rejected.Value() - r0)
	return nil
}
