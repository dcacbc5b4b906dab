# Pre-merge checks for the READYS reproduction.
#
#   make check       — everything a PR must pass: build, vet, tests, decision-
#                      equivalence gate, fuzzing, race tests, portability gate,
#                      observability, chaos and stream smoke tests, paper
#                      tables
#   make equiv       — decision-equivalence gate: the incremental/serving
#                      decision paths must match the full-rebuild reference
#                      policy bit for bit, and the training path (rollouts on
#                      inference tapes recorded in reused episode logs, one
#                      batched tape pass per episode) must match
#                      per-decision-tape training bit for bit
#   make fuzz        — a short native-fuzzing run of each decoder of outside
#                      input (arrival traces, schedule requests and the
#                      gateway's reading of them, checkpoints, trace-context
#                      headers);
#                      their seeds also run under go test
#   make race        — just the race-detector runs (serving, agent core, RL,
#                      gateway, fault-injecting simulator, streaming arrivals)
#   make portable    — cross-build for arm64 (the only thing here that
#                      compiles the non-amd64 kernel file) and require that no
#                      product anywhere in the library was fused into its add
#   make obs-smoke   — end-to-end telemetry/trace pipeline check: telemetry
#                      JSONL, sim trace, stream trace and their merge (the
#                      gateway's cross-process trace is checked by
#                      TestGatewayFailoverChaos under make test)
#   make chaos-smoke — single-seed fault-injection run through readys-sim
#                      (plan generation, kill/re-execution, strict validator)
#   make stream-smoke— tiny online-scheduling run through readys-stream
#                      (Poisson arrivals, faults mid-stream, strict union
#                      validation, trace checked by readys-obs-check), a
#                      stream that outgrows its trace ring, and a written
#                      arrival trace replayed to the same schedule
#   make tables      — paper-table gate: regenerate the six deterministic
#                      results/*.csv from ./models and cmp them byte for byte
#   make bench-serve — serving-throughput benchmark
#   make serve       — run the scheduling daemon against ./models

GO ?= go
OBS_TMP ?= /tmp/readys-obs-smoke

.PHONY: check build vet test equiv fuzz race portable obs-smoke chaos-smoke stream-smoke tables bench-serve serve gateway

check: build vet test equiv fuzz race portable obs-smoke chaos-smoke stream-smoke tables

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The benchmark harness is a module of its own (benchmark/go.mod), which
# ./... does not reach; its tests smoke all four workloads in about a second.
test:
	$(GO) test ./...
	cd benchmark && $(GO) test ./...

# Decision-equivalence proofs, named explicitly so a failure reads as "the
# optimised decision path diverged from the oracle" rather than a generic
# test break: incremental state vs full rebuild (bitwise, incl. faults and
# streaming AddJob invalidation), the serving policy vs the reference policy
# (TestServingPolicyResultIdentical), the inference tape — output slots
# reused across growing and shrinking passes — vs fresh gradient tapes
# (TestInferenceBindingMatchesFreshTapes), and TestPolicyDecideAllocFree,
# which fails if a warm decision allocates or the inference tape's outputs
# go back to the free list. The stream path's append-only pieces are each pinned to the whole-union computation
# they replaced (heap TopoOrder vs sort-every-pop, the descendant-feature
# accumulator vs DescendantFeatures, HEFT-per-job ranks over the union vs
# sched.UpwardRanks of each job on its own graph), ReplanHEFT's first plan
# (time 0, nothing started) is held to HEFT's Assignment, Order, ProjStart
# and ProjEnd bit for bit on Cholesky/LU/QR at 2c2g and 4c0g and on random
# layered DAGs, so both callers of the one placement loop must seed it alike
# (TestReplanHEFTMatchesHEFTAtSigmaZero),
# the encoder, which reads the graph's neighbour rows in whatever order they
# come, is held to the oracle on a DAG whose rows are out of order
# (TestIncrementalUnsortedAdjacency), TestStreamCostFlat /
# TestMemoScopedToStateVersion fail if a per-arrival pass over the union DAG or
# a stream-long memo comes back, and TestClusterReserveGrowsNothing if an
# arrival re-copies a reserved history. The policy's per-task caches cover the
# live jobs only, and are held to the whole-union oracle all the same: the
# accumulator under random retirement (TestDescendantAccumulatorRetireMatchesOracle),
# the encoder decision for decision over a faulted 200-job stream
# (TestIncrementalRetiresFinishedJobs). The cluster drops a finished job's
# union rows: a live job's rows must stay its own graph's and the union valid
# after every completion (TestClusterRetiresFinishedJobs), and a retired job's
# precedence must still be checked, from its own graph
# (TestStreamValidateCatchesRetiredJobViolation). The streaming cluster runs Simulate's
# event loop: a one-job cluster must schedule as Simulate does — error,
# makespan, decision counts, trace and kills — across factorisations, noise,
# fault plans and policies that idle until forced
# (TestSimulateMatchesSingleJobCluster). The training path
# is held to the per-decision tapes it replaced: segment ops vs one tape per
# range (TestSegmentOpsMatchPerSegmentTapes), the fused dense-layer node vs
# its three ops and the input gradient vs the ∂C·Wᵀ dot loop, its backward
# also with its output dropped and overwritten, on the ReLU mask alone
# (TestLinearReLUSegMatchesThreeOps), a dropped activation's buffer going to
# the next output and a Drop that would lose values someone reads panicking
# (TestDropContract), rollouts on the inference tape vs a
# per-decision-tape rollout kept in the test file
# (TestTrainingRolloutMatchesTape), the width-d pass vs width 1 vs what the
# rollout recorded (TestBatchedForwardBitIdentical),
# gradients vs the per-decision update kept in the test file
# (TestBatchedUpdateBitIdentical), whole Histories vs files the old trainer
# wrote (TestHistoryMatchesParentGolden), and TestTrainCostBounded fails if
# an episode is recorded in memory the trainer does not keep. A warm update
# allocates nothing (TestUpdateAllocFree), an episode is cut into passes of
# at most 512 rows and about equal height (TestPassSplitContract), so its tape
# keeps the buffers of one such pass whatever the episodes' lengths — and of
# that pass only the propagated rows Â·h, the live activation h and two
# gradients, each activation dropped for its ReLU mask once the next layer has
# read it (TestUpdateTapeRetainsBounded) — and an inference tape keeps no backward step
# (TestInferenceTapeRecordsNoSteps). The episode log
# is held to deep copies of the encoder's states decision by decision
# (TestEpisodeLogReproducesStates: three factorisations, faults, fault
# features, directed, no incremental encoder, mid-episode stream arrivals,
# remaining times clamped to +0, nothing running), W+1 logs to what they keep
# at two batch sizes (TestRolloutLogsRetainBounded), a reused log and resident rollout policy to fresh ones
# (TestEpisodeLogReuseIsolated: long then short, short then long, after an
# error mid-episode). The comparison tables' one evaluator, reused across
# factorisations, faults and noise levels with its resident sampling READYS
# policy, is held to a fresh policy, simulator and generators per run
# (TestEvaluatorReuseBitIdentical). The serving path's resident
# policies, simulator memory and problem templates are held to ones built
# fresh per request (TestLeasedPolicyMatchesFreshPolicy: graph sizes up and
# down, explicit DAGs, eviction;
# TestLeasedPolicyFollowsPublishedWeights for new weights after LRU eviction; a reused
# sim.Runner to a new one: TestRunnerReuseBitIdentical), its typed spans to the
# map path's exported bytes (TestSpanExportsAsCompleteWithSpanArgs), and
# TestScheduleRequestAllocBounded / TestSpanAllocatesNothing /
# TestTracerRingBytesFixed fail if a request rebuilds its problem or state or a
# span boxes its attributes again; TestRecordHasNoPointers fails if a ring
# record grows past 96 bytes or holds a pointer the collector must scan, and
# TestTracerStringTableBounded if the ring's string table keeps strings no
# live record names. These also run under `make test`.
equiv:
	$(GO) test -run 'TestSegmentOpsMatchPerSegmentTapes|TestLinearReLUSegMatchesThreeOps|TestDropContract|TestInferenceTapeRecordsNoSteps' ./internal/autograd/
	$(GO) test -run 'TestInferenceBindingMatchesFreshTapes' ./internal/nn/
	$(GO) test -run 'TestIncremental|TestServingPolicyResultIdentical|TestPolicyDecideAllocFree|TestBatchedForwardBitIdentical|TestMemoScopedToStateVersion|TestTrainingRolloutMatchesTape|TestEpisodeLogReproducesStates' ./internal/core/
	$(GO) test -run 'TestBatchedUpdateBitIdentical|TestHistoryMatchesParentGolden|TestTrainCostBounded|TestUpdateAllocFree|TestPassSplitContract|TestUpdateTapeRetainsBounded|TestRolloutLogsRetainBounded|TestStreamTrainingWorkerInvariance|TestA2CFaultTrainingBitIdenticalAcrossWorkers|TestEpisodeLogReuseIsolated' ./internal/rl/
	$(GO) test -run 'TestEvaluatorReuseBitIdentical' ./internal/exp/
	$(GO) test -run 'TestTopoOrderMatchesSortEveryPop|TestReverseTopoFrom|TestDescendantAccumulator' ./internal/taskgraph/
	$(GO) test -run 'TestRunnerReuseBitIdentical|TestClusterReserveGrowsNothing|TestClusterRetiresFinishedJobs' ./internal/sim/
	$(GO) test -run 'TestReplanHEFTMatchesHEFTAtSigmaZero' ./internal/sched/
	$(GO) test -run 'TestStreamIncrementalIdentical|TestStreamCostFlat|TestHEFTPerJobRanksMatchUnion|TestSimulateMatchesSingleJobCluster|TestStreamValidateCatchesRetiredJobViolation' ./internal/stream/
	$(GO) test -run 'TestLeasedPolicyMatchesFreshPolicy|TestLeasedPolicyFollowsPublishedWeights|TestScheduleRequestAllocBounded' ./internal/serve/
	$(GO) test -run 'TestSpanExportsAsCompleteWithSpanArgs|TestSpanAllocatesNothing|TestTracerRingBytesFixed|TestRecordHasNoPointers|TestTracerStringTableBounded' ./internal/obs/

# Native fuzzing of the decoders that read outside bytes: an arrival trace
# either errors or builds every graph within taskgraph.MaxTasks and
# round-trips; a /v1/schedule body either errors or builds an acyclic graph
# within MaxDAGTasks, row for row as the task-by-task build did; the gateway
# accepts and routes every body a replica accepts, as the replica's full
# decode would route it; a checkpoint either errors or sets every parameter and
# round-trips bit for bit; trace-context headers of any bytes come back out
# of a span export as encoding/json renders them. A failing input is written
# to the package's testdata/fuzz/, where plain go test replays it from then
# on. The checkpoint seeds are a 66 kB model: minimising each new interesting
# input of that size would take the whole run, so it gets one minimisation
# step; so do the trace headers, whose minimisation stalls the run for
# seconds at a time and buys nothing for two strings.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadArrivals$$' -fuzztime 10s ./internal/stream/
	$(GO) test -run '^$$' -fuzz '^FuzzScheduleRequest$$' -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzRouteRequest$$' -fuzztime 10s ./internal/gateway/
	$(GO) test -run '^$$' -fuzz '^FuzzLoadCheckpoint$$' -fuzztime 10s -fuzzminimizetime 1x ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzTraceContext$$' -fuzztime 10s -fuzzminimizetime 1x ./internal/obs/

# Concurrency-sensitive packages run under the race detector: internal/tensor,
# internal/autograd and internal/nn (the buffer pool every goroutine that
# multiplies draws from), internal/serve
# (registry, pool, handlers, and leases handing resident policies from one
# worker to the next — TestConcurrentLeasedPolicies), internal/core
# (shared-agent inference), internal/rl (parallel batch
# rollouts on resident per-worker policies recording into per-slot episode
# logs — TestEpisodeLogReuseIsolated — beside the update, which accumulates
# each episode as it is in and stops the rollouts when one fails —
# TestRunStopsRolloutsOnError), internal/gateway (health prober, concurrent
# failover),
# internal/sim (fault injection under parallel rollouts), and internal/stream
# (stream rollouts share agents across workers).
race:
	$(GO) test -race ./internal/tensor/... ./internal/autograd/... ./internal/nn/... ./internal/serve/... ./internal/core/... ./internal/rl/... ./internal/gateway/... ./internal/sim/... ./internal/stream/...

# Portability gate. internal/tensor's assembly exists for amd64 only; every
# other architecture runs the Go loops of axpy.go/ops.go behind
# axpy_noasm.go, which nothing else on an amd64 box compiles — shared code
# that names an amd64-only symbol breaks them silently. And where the target
# has FMA the compiler fuses y += a*x unless the product is written
# float64(a*x), rounding once where VMULPD/VADDPD and amd64's scalar code round
# twice — in the kernels, the tape, the simulator's clock, the schedulers'
# finish times and the tables' statistics alike. Pure Go, no cgo: the
# cross-build works offline. The disassembly is of the package archives (every
# internal one; the commands' mains compute nothing of their own), so it
# covers functions no command links.
PORTABLE_TMP ?= /tmp/readys-portable
PORTABLE_PKGS = $(wildcard internal/*)
portable:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor/
	rm -rf $(PORTABLE_TMP) && mkdir -p $(PORTABLE_TMP)
	@fused=0; for p in $(PORTABLE_PKGS); do \
		a=$(PORTABLE_TMP)/$$(echo $$p | tr ./ __).a; \
		GOARCH=arm64 $(GO) build -o $$a ./$$p/ || exit 1; \
		if out=$$($(GO) tool objdump $$a | grep -E 'FN?M(ADD|SUB)'); then echo "$$out" | sed "s|^|$$p|"; fused=1; fi; \
	done; if [ $$fused = 1 ]; then \
		echo "portable: fused multiply-add in the lines above — write the product as float64(a*x)"; exit 1; fi
	rm -rf $(PORTABLE_TMP)
	@echo portable OK

# End-to-end observability check. Phase 1 artifacts: train a tiny agent with
# -telemetry, simulate one DAG with -trace, assert both are valid and
# non-empty. Phase 2 artifacts: a READYS streaming run's trace validated by
# readys-obs-check and its exported readys_decide_* counters
# (∅ answers included), then the sim and stream traces merged into one
# document (-merge) that must validate too. Parent-link validation (-links)
# of a client → gateway → replica trace is TestGatewayFailoverChaos's and
# TestGatewayTraceLinks's, under make test.
obs-smoke:
	rm -rf $(OBS_TMP) && mkdir -p $(OBS_TMP)
	$(GO) run ./cmd/readys-train -kind cholesky -T 2 -episodes 3 -quiet \
		-out $(OBS_TMP)/models -telemetry $(OBS_TMP)/train.jsonl
	$(GO) run ./cmd/readys-sim -kind cholesky -T 2 -policy mct \
		-trace $(OBS_TMP)/trace.json > /dev/null
	$(GO) run ./cmd/readys-obs-check -jsonl $(OBS_TMP)/train.jsonl \
		-trace $(OBS_TMP)/trace.json
	$(GO) run ./cmd/readys-stream -rate 6 -jobs 6 -sigma 0.1 \
		-policy readys -models models -fault-rate 1 -seed 7 -quiet \
		-trace $(OBS_TMP)/stream-trace.json -metrics $(OBS_TMP)/metrics.prom > /dev/null
	for c in forwards memo_hits window_rows rebuilds idle; do \
		grep -q "^# TYPE readys_decide_$${c}_total counter" $(OBS_TMP)/metrics.prom || exit 1; done
	grep -q '^readys_decide_forwards_total [1-9]' $(OBS_TMP)/metrics.prom
	$(GO) run ./cmd/readys-obs-check -trace $(OBS_TMP)/stream-trace.json
	$(GO) run ./cmd/readys-obs-check -merge $(OBS_TMP)/merged.json \
		$(OBS_TMP)/trace.json $(OBS_TMP)/stream-trace.json
	rm -rf $(OBS_TMP)

# Single-seed chaos check: a tiny DAG scheduled through readys-sim with fault
# injection on. Exercises plan generation, in-flight kills, re-execution and
# the strict fault-aware validator (readys-sim fails hard if any slice
# overlaps an outage or a duration leaves the timing envelope).
chaos-smoke:
	$(GO) run ./cmd/readys-sim -kind cholesky -T 3 -cpus 1 -gpus 1 -sigma 0.1 \
		-policy mct -fault-rate 2 -seed 7 > /dev/null
	@echo chaos-smoke OK

# Online-scheduling smoke: a tiny mixed-family Poisson stream scheduled
# through readys-stream with faults firing mid-stream. Exercises arrivals on
# the persistent cluster, kills/re-execution across jobs and the strict union
# validator (readys-stream fails hard on an invalid schedule), then checks the
# emitted Chrome trace with readys-obs-check. A 4000-job stream then outgrows
# its trace ring, whose export must still validate: the ring keeps the most
# recent window, so it holds E events whose B it overwrote, and the export
# leaves those out. Then a READYS stream is written
# out with -write-arrivals and replayed with -arrivals: the per-job table and
# the summary must match the direct run's line for line (the header names the
# flags' mix on one and the trace's on the other, and only the direct run
# writes a file).
STREAM_TMP ?= /tmp/readys-stream-smoke
stream-smoke:
	rm -rf $(STREAM_TMP) && mkdir -p $(STREAM_TMP)
	$(GO) run ./cmd/readys-stream -rate 6 -jobs 6 -sigma 0.1 \
		-policy heft-per-job -fault-rate 1 -seed 7 -quiet \
		-trace $(STREAM_TMP)/trace.json > /dev/null
	$(GO) run ./cmd/readys-obs-check -trace $(STREAM_TMP)/trace.json
	$(GO) run ./cmd/readys-stream -jobs 4000 -job-sizes 4,5 -policy mct -quiet \
		-trace $(STREAM_TMP)/wrapped.json > /dev/null
	$(GO) run ./cmd/readys-obs-check -trace $(STREAM_TMP)/wrapped.json
	$(GO) run ./cmd/readys-stream -rate 6 -jobs 10 -policy readys -models models \
		-seed 11 -write-arrivals $(STREAM_TMP)/arrivals.jsonl > $(STREAM_TMP)/direct.txt
	$(GO) run ./cmd/readys-stream -arrivals $(STREAM_TMP)/arrivals.jsonl -policy readys \
		-models models -seed 11 > $(STREAM_TMP)/replay.txt
	grep -v '^wrote ' $(STREAM_TMP)/direct.txt | tail -n +2 > $(STREAM_TMP)/direct.body
	tail -n +2 $(STREAM_TMP)/replay.txt > $(STREAM_TMP)/replay.body
	cmp $(STREAM_TMP)/direct.body $(STREAM_TMP)/replay.body
	rm -rf $(STREAM_TMP)
	@echo stream-smoke OK

# Paper-table gate: every refactor must leave the deterministic tables of the
# paper byte-identical. Each is regenerated from the committed checkpoints and
# compared with the committed file; cmp names the file and the first byte that
# differs. Speed is judged elsewhere, on spreads rather than one reading:
# benchmark/run.sh against BENCHMARK.json (benchmark/README.md).
TABLES_TMP ?= /tmp/readys-tables
tables:
	rm -rf $(TABLES_TMP) && mkdir -p $(TABLES_TMP)
	$(GO) build -o $(TABLES_TMP)/readys-fig ./cmd/readys-fig
	for name in figure3 figure4 figure5 figure6 stream resilience; do \
		$(TABLES_TMP)/readys-fig -fig $${name#figure} -models models -o $(TABLES_TMP)/$$name.csv && \
		cmp $(TABLES_TMP)/$$name.csv results/$$name.csv || exit 1; \
	done
	rm -rf $(TABLES_TMP)
	@echo tables OK

bench-serve:
	$(GO) test -bench BenchmarkServeScheduleThroughput -benchtime 2s -run '^$$' ./internal/serve/

serve:
	$(GO) run ./cmd/readys-serve -addr :8080 -models models

# Front two local replicas started by hand, e.g.
#   make serve & $(GO) run ./cmd/readys-serve -addr :8081 -models models &
gateway:
	$(GO) run ./cmd/readys-gateway -addr :8090 -replicas http://127.0.0.1:8080,http://127.0.0.1:8081
