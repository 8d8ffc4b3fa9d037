// Command hzccl-collective regenerates the collective-communication
// experiments of the hZCCL paper: Figure 2 (C-Coll runtime breakdown),
// Figures 7/8 (hZCCL vs C-Coll), Figures 9/11 (message-size sweeps) and
// Figures 10/12 (node-count sweeps up to 512 simulated nodes).
//
// Usage:
//
//	hzccl-collective -experiment fig2|fig7|fig8|fig9|fig10|fig11|fig12|all \
//	    [-nodes N] [-maxnodes N] [-message BYTES] [-rel BOUND] \
//	    [-latency DUR] [-bandwidth GBPS] [-quick] [-trials K] \
//	    [-metrics FILE|-]
//
// -metrics dumps the accumulated runtime telemetry (compressor byte
// counters, per-stage span histograms, hzdyn pipeline selection) at exit:
// "-" writes the JSON snapshot to stdout, any other value is a file path,
// and a path ending in ".prom" selects the Prometheus text format.
//
// Multi-process mode: with -transport=tcp the process becomes ONE rank of
// a real cluster over TCP sockets and runs a single Allreduce:
//
//	hzccl-collective -transport=tcp -rank 0 -peers h0:p0,h1:p1,... \
//	    [-backend mpi|ccoll|hzccl] [-algorithm ring|rd|rabenseifner|hierarchical|auto] \
//	    [-topology NODESxSIZE|s0,s1,...] [-message BYTES] [-rel BOUND] \
//	    [-recv-timeout DUR] [-kill-rank R -kill-step S]
//
// Transport runs always carry a receive deadline (-recv-timeout, default
// 2s) so a dropped peer surfaces as an error instead of a deadlock.
// -kill-rank crashes one rank mid-collective as an elastic-membership
// demo: every process passes the same flags, the victim exits reporting
// its injected death, and the survivors evict it and print digests of the
// shrunken-world result (which must match an inproc run of the survivor
// count).
//
// Service client: -submit ADDR sends one job — described by the usual
// -backend/-algorithm/-topology/-message/-rel flags — to a running
// hzccl-serve daemon and prints its digests in the standalone format:
//
//	hzccl-collective -submit HOST:PORT -backend hzccl -message 65536
//
// Every process prints its rank's result digest, virtual time and
// wall-clock time; digests must agree across ranks and match
// -transport=inproc (same flags, no -rank/-peers), which runs the
// identical collective on the default in-process fabric and prints each
// rank's digest in the same format. scripts/tcp_smoke.sh automates the
// comparison.
//
// Observability: -obs-listen ADDR serves /healthz, /metrics (Prometheus),
// /debug/vars, /debug/pprof/*, /flightrecorder and /trace over HTTP for
// the lifetime of the process (-obs-linger keeps it up after the work
// finishes, for scrapers). -trace works in transport mode too: on
// -transport=tcp each process writes its own trace file, and
//
//	hzccl-collective -trace-merge merged.json rank0.json rank1.json ...
//
// joins them into one Perfetto-loadable multi-rank timeline. On any
// collective failure the flight recorder's retained events are dumped to
// stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hzccl"
	"hzccl/internal/cluster"
	"hzccl/internal/core"
	"hzccl/internal/datasets"
	"hzccl/internal/floatbytes"
	"hzccl/internal/harness"
	"hzccl/internal/metrics"
	"hzccl/internal/obs"
	"hzccl/internal/telemetry"
	"hzccl/serve"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id: fig2, fig7..fig12 or all")
		nodes      = flag.Int("nodes", 0, "node count for fixed-node experiments (0 = default)")
		maxNodes   = flag.Int("maxnodes", 0, "maximum node count for scaling sweeps (0 = default 512)")
		message    = flag.Int("message", 0, "per-rank message bytes for node sweeps (0 = default)")
		rel        = flag.Float64("rel", 0, "relative error bound (0 = default 1e-4)")
		latency    = flag.Duration("latency", 0, "modeled per-message latency (0 = default 2us)")
		bandwidth  = flag.Float64("bandwidth", 0, "modeled effective link bandwidth in GB/s (0 = default 0.4)")
		quick      = flag.Bool("quick", false, "shrink scales for a fast smoke run")
		trials     = flag.Int("trials", 0, "timing trials per kernel (0 = default)")
		traceFile  = flag.String("trace", "", "write a Chrome trace of one hZCCL Allreduce to this file and exit")
		metricsOut = flag.String("metrics", "", "dump the telemetry snapshot at exit: '-' = JSON to stdout, FILE = JSON, FILE.prom = Prometheus text format")
		chaosSeed  = flag.Int64("chaos", 0, "run a self-healing demo: one Allreduce over a faulty fabric seeded with this value, then exit (0 = off)")
		chaosRate  = flag.Float64("chaos-rate", 0.04, "per-class fault probability (drop/corrupt/duplicate/delay) for -chaos")
		transport  = flag.String("transport", "", "run one Allreduce on a specific fabric and exit: 'tcp' (this process is one rank; requires -rank and -peers) or 'inproc' (all ranks in-process, -nodes ranks)")
		tcpRank    = flag.Int("rank", 0, "this process's rank for -transport=tcp")
		tcpPeers   = flag.String("peers", "", "comma-separated host:port listen addresses of all ranks (indexed by rank) for -transport=tcp")
		backendStr = flag.String("backend", "hzccl", "collective backend for -transport: mpi, ccoll or hzccl")
		algoStr    = flag.String("algorithm", "ring", "collective algorithm for -transport: ring, rd, rabenseifner, hierarchical or auto")
		topoStr    = flag.String("topology", "", "node grouping for -transport: NODESxSIZE (e.g. 2x2) or comma-separated node sizes (e.g. 3,5,8); empty = flat")
		killRank   = flag.Int("kill-rank", -1, "elastic-membership demo for -transport: crash this rank mid-collective; survivors evict it and finish on the shrunken world (-1 = off)")
		killStep   = flag.Int("kill-step", 0, "program-order send step at which -kill-rank crashes")
		recvTO     = flag.Duration("recv-timeout", 0, "receive deadline for -transport runs (0 = 2s; a dropped peer must surface as an error, not a deadlock)")
		submitAddr = flag.String("submit", "", "submit one job to a running daemon's client address and print its digests (uses -backend/-algorithm/-topology/-message/-rel/-kill-rank/-kill-step)")
		obsListen  = flag.String("obs-listen", "", "serve the live introspection endpoint (healthz, metrics, pprof, flight recorder, trace) on this host:port")
		obsLinger  = flag.Duration("obs-linger", 0, "keep the -obs-listen endpoint up this long after the work finishes")
		traceMerge = flag.String("trace-merge", "", "merge the per-process trace files given as arguments into this output file and exit")
	)
	flag.Parse()

	// Collective failures dump the flight recorder's retained events, so a
	// crashed run leaves a post-mortem on stderr.
	hzccl.SetFlightDumpWriter(os.Stderr)

	if *traceMerge != "" {
		if err := mergeTraces(*traceMerge, flag.Args()); err != nil {
			fmt.Fprintf(os.Stderr, "hzccl-collective: trace-merge: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (merged %d traces; open in chrome://tracing or ui.perfetto.dev)\n", *traceMerge, len(flag.Args()))
		return
	}

	// In transport mode -trace records this process's rank-local trace;
	// the same Trace object backs the /trace endpoint.
	var transportTrace *hzccl.Trace
	if *transport != "" && *traceFile != "" {
		transportTrace = &hzccl.Trace{}
	}
	if *obsListen != "" {
		srv, err := startObs(*obsListen, *transport, *tcpRank, *tcpPeers, *nodes, transportTrace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hzccl-collective: obs: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
	}
	// finish runs the common exit work: the -metrics snapshot, then the
	// -obs-linger window during which the endpoint stays scrapable.
	finish := func() {
		if err := telemetry.DumpSnapshot(*metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "hzccl-collective: metrics: %v\n", err)
			os.Exit(1)
		}
		if *obsListen != "" && *obsLinger > 0 {
			fmt.Fprintf(os.Stderr, "obs: lingering %v\n", *obsLinger)
			time.Sleep(*obsLinger)
		}
	}

	if *submitAddr != "" {
		if err := runSubmit(*submitAddr, *backendStr, *algoStr, *topoStr, *message, *rel, *killRank, *killStep); err != nil {
			fmt.Fprintf(os.Stderr, "hzccl-collective: submit: %v\n", err)
			os.Exit(1)
		}
		finish()
		return
	}

	if *transport != "" {
		if err := runTransport(*transport, *tcpRank, *tcpPeers, *backendStr, *algoStr, *topoStr, *nodes, *message, *rel, *traceFile, transportTrace, *killRank, *killStep, *recvTO); err != nil {
			if errors.Is(err, hzccl.ErrRankKilled) {
				// The injected crash: this rank is the victim, and dying is
				// its expected outcome — the survivors carry the collective.
				fmt.Printf("rank %d killed by injected fault at send #%d (expected; survivors continue)\n", *tcpRank, *killStep)
				finish()
				return
			}
			fmt.Fprintf(os.Stderr, "hzccl-collective: transport: %v\n", err)
			os.Exit(1)
		}
		finish()
		return
	}

	if *chaosSeed != 0 {
		if err := runChaosDemo(*chaosSeed, *chaosRate, *nodes, *message); err != nil {
			fmt.Fprintf(os.Stderr, "hzccl-collective: chaos: %v\n", err)
			os.Exit(1)
		}
		finish()
		return
	}

	if *traceFile != "" {
		if err := writeTrace(*traceFile, *nodes, *message); err != nil {
			fmt.Fprintf(os.Stderr, "hzccl-collective: trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (open in chrome://tracing or ui.perfetto.dev)\n", *traceFile)
		finish()
		return
	}

	opt := harness.Options{
		Nodes:        *nodes,
		MaxNodes:     *maxNodes,
		MessageBytes: *message,
		RelBound:     *rel,
		Latency:      *latency,
		Bandwidth:    *bandwidth * 1e9,
		Quick:        *quick,
		Trials:       *trials,
	}
	ids := []string{"fig2", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"}
	if *experiment != "all" {
		ids = []string{*experiment}
	}
	for _, id := range ids {
		e, ok := harness.Find(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "hzccl-collective: unknown experiment %q\n", id)
			os.Exit(2)
		}
		fmt.Printf("\n===== %s: %s =====\n", e.ID, e.Title)
		if err := e.Run(os.Stdout, opt); err != nil {
			fmt.Fprintf(os.Stderr, "hzccl-collective: %s: %v\n", id, err)
			os.Exit(1)
		}
	}
	finish()
}

// startObs boots the live introspection endpoint with this process's
// identity: in transport mode the rank and world size from the flags, in
// experiment/chaos/trace mode rank −1 (one process hosts every rank).
func startObs(addr, transportKind string, tcpRank int, tcpPeers string, nodes int, trace *hzccl.Trace) (*obs.Server, error) {
	rank, world, name := -1, nodes, transportKind
	switch transportKind {
	case "tcp":
		rank = tcpRank
		world = len(strings.Split(tcpPeers, ","))
	case "":
		name = "inproc"
	}
	if transportKind != "tcp" && world == 0 {
		world = 4 // runTransport's inproc default
	}
	opts := obs.Options{Rank: rank, World: world, Transport: name}
	if trace != nil {
		opts.Trace = trace.WriteChrome
	}
	srv, err := obs.Start(addr, opts)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "obs: serving on http://%s\n", srv.Addr())
	return srv, nil
}

// mergeTraces joins per-process trace files (written by -transport=tcp
// -trace) into one multi-rank timeline.
func mergeTraces(out string, inputs []string) error {
	if len(inputs) < 2 {
		return fmt.Errorf("need at least two per-process trace files as arguments")
	}
	readers := make([]io.Reader, len(inputs))
	for i, path := range inputs {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		readers[i] = f
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	return hzccl.MergeChromeTraces(f, readers...)
}

// runSubmit sends one job to a running daemon and prints the per-rank
// digest lines in the exact format of a -transport run, so smoke scripts
// compare daemon and standalone results with the same extraction.
func runSubmit(addr, backendStr, algoStr, topoStr string, message int, rel float64, killRank, killStep int) error {
	backend, err := parseBackend(backendStr)
	if err != nil {
		return err
	}
	if message == 0 {
		message = 1 << 18
	}
	if rel == 0 {
		rel = 1e-4
	}
	c, err := serve.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	world, err := c.Ping()
	if err != nil {
		return err
	}
	spec := serve.JobSpec{
		Backend: strings.ToLower(backendStr), Algorithm: algoStr, Topology: topoStr,
		MessageBytes: message, RelBound: rel,
	}
	if killRank >= 0 {
		spec.KillRank = killRank
		spec.KillStep = killStep
	}
	res, err := c.Submit(spec)
	if err != nil {
		return err
	}
	if len(res.Evicted) > 0 {
		fmt.Printf("evicted ranks %v: survivors finished on a %d-rank world\n", res.Evicted, world-len(res.Evicted))
	}
	ranks := make([]int, 0, len(res.Digests))
	for k := range res.Digests {
		id, err := strconv.Atoi(k)
		if err != nil {
			return fmt.Errorf("daemon returned non-numeric rank %q", k)
		}
		ranks = append(ranks, id)
	}
	sort.Ints(ranks)
	for _, id := range ranks {
		fmt.Printf("rank %d/%d backend=%s algo=%s bytes=%d digest=%s virtual=%.3fms wall=%.3fms\n",
			id, world, backend, algoStr, message, res.Digests[strconv.Itoa(id)],
			res.VirtualSeconds*1e3, res.WallSeconds*1e3)
	}
	fmt.Printf("job %d done on %s\n", res.ID, addr)
	return nil
}

// parseBackend maps a -backend flag value to a collective backend.
func parseBackend(s string) (hzccl.Backend, error) {
	switch strings.ToLower(s) {
	case "mpi":
		return hzccl.BackendMPI, nil
	case "ccoll", "c-coll":
		return hzccl.BackendCColl, nil
	case "hzccl", "":
		return hzccl.BackendHZCCL, nil
	}
	return 0, fmt.Errorf("unknown backend %q (want mpi, ccoll or hzccl)", s)
}

// runTransport runs one Allreduce on an explicitly selected fabric and
// prints, per local rank, a digest of the reduced vector plus the virtual
// (modeled) and wall-clock times. "tcp" makes this process rank `rank` of
// the mesh described by `peers`; "inproc" runs all ranks in this process
// so its digests serve as the reference the TCP run must match bitwise.
// With a trace attached the run is recorded and written to traceFile —
// on TCP each process produces its own rank-local file for -trace-merge.
func runTransport(kind string, rank int, peers, backendStr, algoStr, topoStr string, nodes, message int, rel float64, traceFile string, trace *hzccl.Trace, killRank, killStep int, recvTO time.Duration) error {
	backend, err := parseBackend(backendStr)
	if err != nil {
		return err
	}
	algo, err := hzccl.ParseAlgorithm(algoStr)
	if err != nil {
		return err
	}
	var topo *hzccl.Topology
	if topoStr != "" {
		topo, err = hzccl.ParseTopology(topoStr)
		if err != nil {
			return err
		}
	}
	if message == 0 {
		message = 1 << 18
	}
	if rel == 0 {
		rel = 1e-4
	}
	base, err := datasets.Field("SimSet1", 0, message/4)
	if err != nil {
		return err
	}
	eb := metrics.AbsBound(rel, base)
	opt := hzccl.CollectiveOptions{ErrorBound: eb, Algorithm: algo}

	// A receive deadline always: a transport run whose peer drops must
	// surface an error, never deadlock-by-config.
	if recvTO <= 0 {
		recvTO = 2 * time.Second
	}
	cfg := hzccl.ClusterConfig{
		Latency:        2 * time.Microsecond,
		BandwidthBytes: 0.4e9,
		Topology:       topo,
		Trace:          trace,
		RecvTimeout:    recvTO,
	}
	if killRank >= 0 {
		// Elastic-membership demo: crash the victim mid-collective; the
		// survivors detect it, evict it and finish on the shrunken world.
		cfg.Fault = hzccl.KillRank{Rank: killRank, AtStep: killStep}.Fault()
		cfg.Reliable = true
		opt.Degrade = &hzccl.DegradePolicy{Shrink: true}
	}
	switch kind {
	case "tcp":
		peerList := strings.Split(peers, ",")
		if peers == "" || len(peerList) < 2 {
			return fmt.Errorf("-transport=tcp needs -peers with at least two comma-separated host:port addresses")
		}
		tr, err := hzccl.NewTCPTransport(hzccl.TCPOptions{Rank: rank, Peers: peerList})
		if err != nil {
			return err
		}
		defer tr.Close()
		cfg.Ranks = len(peerList)
		cfg.Transport = tr
	case "inproc":
		if nodes == 0 {
			nodes = 4
		}
		cfg.Ranks = nodes
	default:
		return fmt.Errorf("unknown transport %q (want tcp or inproc)", kind)
	}

	var mu sync.Mutex
	digests := make(map[int]uint32, cfg.Ranks)
	res, err := hzccl.RunCluster(cfg, func(r *hzccl.Rank) error {
		id0 := r.ID() // pre-shrink identity: a kill run renumbers survivors
		out, err := r.Allreduce(base, backend, opt)
		if err != nil {
			return err
		}
		mu.Lock()
		digests[id0] = floatbytes.Checksum(out)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return err
	}
	if len(res.Evicted) > 0 {
		fmt.Printf("evicted ranks %v: survivors finished on a %d-rank world\n", res.Evicted, cfg.Ranks-len(res.Evicted))
	}
	ranks := make([]int, 0, len(digests))
	for id := range digests {
		ranks = append(ranks, id)
	}
	sort.Ints(ranks)
	algoLabel := algo.String()
	if algo == hzccl.AlgoAuto && len(res.AlgoChoices) > 0 {
		algoLabel = "auto:" + res.AlgoChoices[0].Algorithm.String()
	}
	for _, id := range ranks {
		fmt.Printf("rank %d/%d backend=%s algo=%s bytes=%d digest=%08x virtual=%.3fms wall=%.3fms\n",
			id, cfg.Ranks, backend, algoLabel, message, digests[id], res.Seconds*1e3, res.WallSeconds*1e3)
	}
	if kind == "tcp" {
		for _, name := range []string{
			"cluster.transport.dials", "cluster.transport.accepts",
			"cluster.transport.reconnects", "cluster.transport.bytes_out",
			"cluster.transport.bytes_in",
		} {
			fmt.Printf("  %-30s %d\n", name, telemetry.C(name).Value())
		}
	}
	if trace != nil && traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteChrome(f); err != nil {
			return err
		}
		fmt.Printf("wrote %s (merge per-process files with -trace-merge)\n", traceFile)
	}
	return nil
}

// runChaosDemo drives one hZCCL Allreduce through a seeded chaotic
// fabric with the self-healing transport on, then reports what the
// recovery layer had to do: faults injected, NACKs, retransmissions,
// dedups and any backend degradations.
func runChaosDemo(seed int64, rate float64, nodes, message int) error {
	if rate < 0 || rate > 0.2 {
		return fmt.Errorf("-chaos-rate must be in [0, 0.2]")
	}
	if nodes == 0 {
		nodes = 8
	}
	if message == 0 {
		message = 1 << 18
	}
	n := message / 4
	base, err := datasets.Field("SimSet1", 0, n)
	if err != nil {
		return err
	}
	eb := metrics.AbsBound(1e-4, base)
	chaos := hzccl.NewChaos(hzccl.ChaosSpec{
		Seed:            seed,
		DropRate:        rate,
		CorruptRate:     rate,
		DuplicateRate:   rate,
		DelayRate:       rate,
		MaxDelaySeconds: 20e-6,
	})
	counters := []string{"cluster.nacks", "cluster.retransmits", "cluster.dedups", "collective.degradations"}
	before := make(map[string]int64, len(counters))
	for _, name := range counters {
		before[name] = telemetry.C(name).Value()
	}
	res, err := hzccl.RunCluster(hzccl.ClusterConfig{
		Ranks:       nodes,
		Latency:     2 * time.Microsecond,
		Reliable:    true,
		RecvTimeout: 500 * time.Millisecond,
		Fault:       chaos.Fault(),
		Corrupt:     &hzccl.CorruptPattern{Spray: true, Burst: 2},
	}, func(r *hzccl.Rank) error {
		_, err := r.Allreduce(base, hzccl.BackendHZCCL, hzccl.CollectiveOptions{
			ErrorBound: eb,
			Degrade:    &hzccl.DegradePolicy{},
		})
		return err
	})
	if err != nil {
		return err
	}
	c := chaos.Counts()
	fmt.Printf("self-healing Allreduce: %d nodes, %d KB, seed %d\n", nodes, message>>10, seed)
	fmt.Printf("  injected: %d faults (%d drops, %d corrupts, %d duplicates, %d delays)\n",
		c.Total(), c.Drops, c.Corrupts, c.Duplicates, c.Delays)
	for _, name := range counters {
		fmt.Printf("  %-24s %d\n", name, telemetry.C(name).Value()-before[name])
	}
	for _, d := range res.Degradations {
		fmt.Printf("  degraded: %v\n", d)
	}
	fmt.Printf("  completed in %.3f ms virtual time\n", res.Seconds*1e3)
	return nil
}

// writeTrace records the virtual timeline of one hZCCL multi-thread
// Allreduce and saves it in Chrome trace-event format.
func writeTrace(path string, nodes, message int) error {
	if nodes == 0 {
		nodes = 8
	}
	if message == 0 {
		message = 1 << 20
	}
	n := message / 4
	base, err := datasets.Field("SimSet1", 0, n)
	if err != nil {
		return err
	}
	eb := metrics.AbsBound(1e-4, base)
	c := core.New(core.Options{ErrorBound: eb, Mode: core.MultiThread})
	cl, tr, err := cluster.NewTraced(cluster.Config{
		Ranks:          nodes,
		Latency:        2 * time.Microsecond,
		BandwidthBytes: 0.4e9,
	})
	if err != nil {
		return err
	}
	if _, err := cl.Run(func(r *cluster.Rank) error {
		_, _, err := c.Allreduce(r, core.FlavorHZ, core.AlgoRing, base)
		return err
	}); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return tr.WriteChrome(f)
}
