// Command hzccl-collective runs one collective job — one Allreduce or
// Reduce_scatter of a synthetic field, described by a serve.JobSpec and
// run by serve.Run, the function the hzccl-serve daemon runs its jobs
// with — and prints each rank's result digest, virtual time and
// wall-clock time. The paper's tables and figures come from hzccl-paper.
//
// Usage:
//
//	hzccl-collective [-transport inproc|tcp] [-rank R -peers h0:p0,h1:p1,...] \
//	    [-nodes N] [-backend mpi|ccoll|hzccl] \
//	    [-algorithm ring|rd|rabenseifner|hierarchical|auto] \
//	    [-topology NODESxSIZE|s0,s1,...] [-message BYTES] [-rel BOUND] \
//	    [-recv-timeout DUR] [-kill-rank R -kill-step S] [-trace FILE] \
//	    [-metrics FILE|-]
//
// -transport=inproc (the default) runs every rank in this process, -nodes
// of them (default 4). With -transport=tcp the process becomes ONE rank of
// a real cluster over TCP sockets; digests must agree across ranks and
// match an inproc run of the same flags. scripts/tcp_smoke.sh automates
// the comparison.
//
// Runs always carry a receive deadline (-recv-timeout, default 2s) so a
// dropped peer surfaces as an error instead of a deadlock. -kill-rank
// crashes one rank mid-collective as an elastic-membership demo: every
// process passes the same flags, the victim exits reporting its injected
// death, and the survivors evict it and print digests of the
// shrunken-world result (which must match an inproc run of the survivor
// count).
//
// -metrics dumps the accumulated runtime telemetry (compressor byte
// counters, per-stage span histograms, hzdyn pipeline selection) at exit:
// "-" writes the JSON snapshot to stdout, any other value is a file path,
// and a path ending in ".prom" selects the Prometheus text format.
//
// Service client: -submit ADDR sends the same job to a running
// hzccl-serve daemon instead and prints its digests in the same format:
//
//	hzccl-collective -submit HOST:PORT -backend hzccl -message 65536
//
// Self-healing demo: -chaos SEED runs one hZCCL Allreduce on -nodes ranks
// (default 8) over a seeded faulty fabric and reports what the recovery
// layer did.
//
// Observability: -obs-listen ADDR serves /healthz, /metrics (Prometheus),
// /debug/vars, /debug/pprof/*, /flightrecorder and /trace over HTTP for
// the lifetime of the process (-obs-linger keeps it up after the work
// finishes, for scrapers). -trace FILE records the job as a Chrome trace:
// on -transport=tcp each process writes its own trace file, and
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
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"hzccl"
	"hzccl/internal/datasets"
	"hzccl/internal/metrics"
	"hzccl/internal/obs"
	"hzccl/internal/telemetry"
	"hzccl/serve"
)

func main() {
	var (
		nodes      = flag.Int("nodes", 0, "rank count of an inproc job (0 = 4) or of -chaos (0 = 8)")
		message    = flag.Int("message", 1<<18, "per-rank message bytes")
		rel        = flag.Float64("rel", 1e-4, "relative error bound")
		traceFile  = flag.String("trace", "", "write a Chrome trace of the job (this process's ranks) to this file")
		metricsOut = flag.String("metrics", "", "dump the telemetry snapshot at exit: '-' = JSON to stdout, FILE = JSON, FILE.prom = Prometheus text format")
		chaosSeed  = flag.Int64("chaos", 0, "run a self-healing demo: one Allreduce over a faulty fabric seeded with this value, then exit (0 = off)")
		chaosRate  = flag.Float64("chaos-rate", 0.04, "per-class fault probability (drop/corrupt/duplicate/delay) for -chaos")
		transport  = flag.String("transport", "inproc", "fabric of the job: 'inproc' (all -nodes ranks in this process) or 'tcp' (this process is one rank; requires -rank and -peers)")
		tcpRank    = flag.Int("rank", 0, "this process's rank for -transport=tcp")
		tcpPeers   = flag.String("peers", "", "comma-separated host:port listen addresses of all ranks (indexed by rank) for -transport=tcp")
		backendStr = flag.String("backend", "hzccl", "collective backend: mpi, ccoll or hzccl")
		algoStr    = flag.String("algorithm", "ring", "collective algorithm: ring, rd, rabenseifner, hierarchical or auto")
		topoStr    = flag.String("topology", "", "node grouping: NODESxSIZE (e.g. 2x2) or comma-separated node sizes (e.g. 3,5,8); empty = flat")
		killRank   = flag.Int("kill-rank", -1, "elastic-membership demo: crash this rank mid-collective; survivors evict it and finish on the shrunken world (-1 = off)")
		killStep   = flag.Int("kill-step", 0, "program-order send step at which -kill-rank crashes")
		recvTO     = flag.Duration("recv-timeout", 0, "receive deadline of the job (0 = 2s; a dropped peer must surface as an error, not a deadlock)")
		submitAddr = flag.String("submit", "", "submit the job to a running daemon's client address instead and print its digests")
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

	// -trace records this process's ranks of the job; the same Trace
	// object backs the /trace endpoint.
	var trace *hzccl.Trace
	if *traceFile != "" {
		trace = &hzccl.Trace{}
	}
	if *obsListen != "" {
		srv, err := startObs(*obsListen, *transport, *tcpRank, *tcpPeers, *nodes, trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hzccl-collective: obs: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
	}

	spec := serve.JobSpec{Backend: *backendStr, Algorithm: *algoStr, Topology: *topoStr, MessageBytes: *message, RelBound: *rel}
	if *killRank >= 0 {
		spec.KillRank, spec.KillStep = killRank, *killStep
	}
	var err error
	switch {
	case *submitAddr != "":
		err = runSubmit(*submitAddr, spec)
	case *chaosSeed != 0:
		err = runChaosDemo(*chaosSeed, *chaosRate, *nodes, *message)
	default:
		err = runJob(spec, *transport, *tcpRank, *tcpPeers, *nodes, *recvTO, trace, *traceFile)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hzccl-collective: %v\n", err)
		os.Exit(1)
	}
	if err := telemetry.DumpSnapshot(*metricsOut); err != nil {
		fmt.Fprintf(os.Stderr, "hzccl-collective: metrics: %v\n", err)
		os.Exit(1)
	}
	if *obsListen != "" && *obsLinger > 0 {
		// The endpoint stays scrapable for the linger window.
		fmt.Fprintf(os.Stderr, "obs: lingering %v\n", *obsLinger)
		time.Sleep(*obsLinger)
	}
}

// startObs boots the live introspection endpoint with this process's
// identity: on TCP the rank and world size from the flags, in process
// rank −1 (one process hosts every rank).
func startObs(addr, transportKind string, tcpRank int, tcpPeers string, nodes int, trace *hzccl.Trace) (*obs.Server, error) {
	rank, world := -1, nodes
	if transportKind == "tcp" {
		rank, world = tcpRank, len(strings.Split(tcpPeers, ","))
	} else if world == 0 {
		world = 4 // runJob's inproc default
	}
	opts := obs.Options{Rank: rank, World: world, Transport: transportKind}
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

// runSubmit sends one job to a running daemon and prints its digests
// through the same printer as a job run here, so smoke scripts compare
// daemon and standalone results with the same extraction.
func runSubmit(addr string, spec serve.JobSpec) error {
	c, err := serve.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	world, err := c.Ping()
	if err != nil {
		return err
	}
	res, err := c.Submit(spec)
	if err != nil {
		return err
	}
	digests := make(map[int]string, len(res.Digests))
	for k, d := range res.Digests {
		id, err := strconv.Atoi(k)
		if err != nil {
			return fmt.Errorf("daemon returned non-numeric rank %q", k)
		}
		digests[id] = d
	}
	printDigests(spec, spec.Algorithm, world, digests, res.Evicted, res.VirtualSeconds, res.WallSeconds)
	fmt.Printf("job %d done on %s\n", res.ID, addr)
	return nil
}

// runJob runs the flags' job (serve.Run) on the fabric -transport names
// and prints each local rank's digest. "tcp" makes this process rank
// `rank` of the mesh described by `peers`; "inproc" runs all `nodes`
// ranks in this process, the reference a TCP run must match bitwise.
// With a trace attached the run is recorded and written to traceFile — on
// TCP each process writes its own rank-local file for -trace-merge.
func runJob(spec serve.JobSpec, kind string, rank int, peers string, nodes int, recvTO time.Duration, trace *hzccl.Trace, traceFile string) error {
	world, fabric := nodes, hzccl.Transport(nil)
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
		world, fabric = len(peerList), tr
	case "inproc":
		if world == 0 {
			world = 4
		}
	default:
		return fmt.Errorf("unknown transport %q (want tcp or inproc)", kind)
	}
	digests, res, err := serve.Run(spec, world, fabric, recvTO, trace)
	if errors.Is(err, hzccl.ErrRankKilled) {
		// The injected crash: this rank is the victim, and dying is its
		// expected outcome — the survivors carry the collective.
		fmt.Printf("rank %d killed by injected fault at send #%d (expected; survivors continue)\n", rank, spec.KillStep)
		return nil
	}
	if err != nil {
		return err
	}
	algo := spec.Algorithm
	if algo == "auto" && len(res.AlgoChoices) > 0 {
		algo += ":" + res.AlgoChoices[0].Algorithm.String()
	}
	printDigests(spec, algo, world, digests, res.Evicted, res.Seconds, res.WallSeconds)
	if kind == "tcp" {
		for _, name := range []string{
			"cluster.transport.dials", "cluster.transport.accepts",
			"cluster.transport.reconnects", "cluster.transport.bytes_out",
			"cluster.transport.bytes_in",
		} {
			fmt.Printf("  %-30s %d\n", name, telemetry.C(name).Value())
		}
	}
	if traceFile == "" {
		return nil
	}
	f, err := os.Create(traceFile)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.WriteChrome(f); err != nil {
		return err
	}
	fmt.Printf("wrote %s (open in chrome://tracing or ui.perfetto.dev; join per-process files with -trace-merge)\n", traceFile)
	return nil
}

// printDigests prints a job's outcome, one line per rank in rank order —
// the lines scripts/tcp_smoke.sh extracts digests from, alike for a job
// run here and one submitted to a daemon.
func printDigests(spec serve.JobSpec, algo string, world int, digests map[int]string, evicted []int, virtual, wall float64) {
	if len(evicted) > 0 {
		fmt.Printf("evicted ranks %v: survivors finished on a %d-rank world\n", evicted, world-len(evicted))
	}
	for _, id := range slices.Sorted(maps.Keys(digests)) {
		fmt.Printf("rank %d/%d backend=%s algo=%s bytes=%d digest=%s virtual=%.3fms wall=%.3fms\n",
			id, world, spec.Backend, algo, spec.MessageBytes, digests[id], virtual*1e3, wall*1e3)
	}
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
