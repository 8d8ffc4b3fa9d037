GO ?= go

.PHONY: build test check bench-check benchmark benchmark-compare bench bench-all fuzz conformance chaos soak tcp-smoke scaling paper

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check runs the hygiene gate: gofmt, go vet (asmdecl covers the fzlight
# block kernels), an arm64 cross vet/build with a no-fused-multiply-add
# check on the quantisers, an s390x (big-endian) cross vet/build, a 386
# test run of bitio/fzlight/hzdyn/conformance (the portable pipeline ④,
# natively), a race-detector pass over the packages with concurrent hot
# paths (telemetry counters, the cluster runtime, the chunk-parallel
# codecs), and bench-check.
check:
	sh scripts/check.sh

# bench-check vets and tests the repository benchmark (≈10 s). benchmark/
# is a nested module that calls a dozen internal/ packages by function
# name, so root `go build/vet/test ./...` cannot see a refactor break it.
bench-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# benchmark runs the repository benchmark BENCHMARK.json declares: every
# workload in its own child process, results under benchmark/out/ (see
# benchmark/README.md; BENCH_ARGS passes flags such as "-seed 7 -runs 3").
# benchmark-compare prints one row per workload × end-to-end metric for two
# of its result files and exits non-zero on a regression.
benchmark:
	bash benchmark/run.sh $(BENCH_ARGS)

benchmark-compare:
	bash benchmark/run.sh -compare $(A) $(B)

# bench runs the hot-path gate (Fig. 6, Table V, Fig. 8 and the
# steady-state zero-allocation benches) and writes BENCH_hotpaths.json;
# it fails if a steady-state hot path allocates or, on full runs, if the
# CESM-ATM add or (with AVX2+BMI2) fZ-light compress/decompress fall below
# their floors. bench-all is the old full sweep: every benchmark once, no
# JSON.
bench:
	sh scripts/bench.sh

bench-all:
	$(GO) test -bench . -benchtime 1x ./...

# fuzz runs every native fuzz target for FUZZTIME each (default 10s, a
# CI smoke; FUZZTIME=5m makes it a real session). Committed seed corpora
# under */testdata/fuzz/ always replay as part of `make test`.
fuzz:
	sh scripts/fuzz.sh

# conformance runs the differential oracles: in-repo unit/edge-shape
# suites plus the CLI gate over the synthetic dataset catalog.
conformance:
	$(GO) test ./internal/conformance ./internal/core -run 'Oracle|Conformance|EdgeShapes' -count=1
	$(GO) run ./cmd/hzccl-conformance

# chaos exercises the self-healing transport: race-enabled robustness
# suites (reliable delivery, degradation, chaos schedules), then the
# conformance oracle and a demo Allreduce on a seeded faulty fabric.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Reliable|Degrad|Barrier|Agree|Corrupt|Fault' . ./internal/cluster ./internal/conformance
	$(GO) run ./cmd/hzccl-conformance -oracles collective -ranks 4 -n 32768 -chaos 1 -chaos-rate 0.05
	$(GO) run ./cmd/hzccl-collective -chaos 5 -nodes 6 -message 262144

# soak runs the elastic-membership chaos soak race-enabled: SOAK_ITERS
# iterations (default 25 here, 3 under plain `make test`), each killing a
# seeded random rank mid-Allreduce and checking the survivors shrink,
# finish under the cooperative-abort deadline, and match a fresh
# shrunken-world run bitwise. SOAK_SEED overrides the seed; a failure
# message includes it for replay. The membership/shrink unit suites run
# first under the race detector, then ten race-enabled rounds of the
# regression tests of the TCP ordering bugs that each first showed up as
# a flake (replay vs connection close, reset vs detector, bye vs
# receiver, bye vs bind), of the agreement table run on both fabrics and
# of rank 0's death on a loopback TCP mesh.
soak:
	$(GO) test -race -count=1 -run 'Agree|Shrink|Membership|ConnReset' ./internal/cluster ./internal/conformance
	$(GO) test -race -count=10 -run 'TestTCPReliableDropRecovery|TestTCPConnResetFeedsDetector|TestTCPByeMidCollectiveIsTyped|TestTCPByeBeforeBindReachesDetector|TestAgreementMatchesAcrossFabrics|TestRankZeroDiesOnRealSockets' ./internal/cluster .
	SOAK_ITERS=$${SOAK_ITERS:-25} $(GO) test -race -count=1 -run 'TestShrinkSoak' -v .

# tcp-smoke runs a 4-rank hZCCL Allreduce as 4 real OS processes over
# loopback TCP and verifies the result digest is bitwise identical to the
# in-process fabric, plus the transport and daemon unit tests under the
# race detector. Each script run also kills rank 3 and then rank 0 (the
# first agreement coordinator) mid-collective, boots the hzccl-serve
# daemon and submits concurrent jobs over one mesh handshake.
tcp-smoke:
	$(GO) test -race -count=1 -run 'TestTCP' ./internal/cluster
	$(GO) test -race -count=1 ./serve
	sh scripts/tcp_smoke.sh
	sh scripts/tcp_smoke.sh 65536 mpi
	sh scripts/tcp_smoke.sh 65536 mpi rabenseifner
	sh scripts/tcp_smoke.sh 65536 hzccl hierarchical 2x2

# scaling runs the paper-scale virtual-time sweep: every algorithm
# (ring, rd, rabenseifner, hierarchical, auto) x flavor at the worlds in
# SCALING_WORLDS (default 8,64; the full paper scale is 8,64,128,512),
# checked bit-identically against a float64 oracle and row by row against
# the committed BENCH_scaling.json, plus the replay tests that hold
# AlgoAuto's prices to the simulator's clock and to the paper's ring
# equations, and a replay to one message's memory at any world.
scaling:
	SCALING_WORLDS=$${SCALING_WORLDS:-8,64,128,512} $(GO) test -count=1 -run 'TestScalingSweep' -v .
	$(GO) test -count=1 -run 'TestReplayMatchesSimulator|TestRingReplayMatchesClosedForms|TestPriceHoldsOneVector' -v . ./internal/costmodel ./internal/core

# paper regenerates the paper's evaluation into results/ with one
# command, cmd/hzccl-paper: the compressor tables and Fig. 6, the collective
# figures, and image stacking (Table VII, Fig. 13 with its PGM images).
paper:
	$(GO) run ./cmd/hzccl-paper -experiment table3,fig6,table4,table5,table6,szx-quality,predictors > results/compressor.txt
	$(GO) run ./cmd/hzccl-paper -experiment fig2,fig7,fig8,fig9,fig10,fig11,fig12 > results/collective.txt
	$(GO) run ./cmd/hzccl-paper -experiment table7,fig13 -out results > results/stacking.txt
