# Pre-merge checks for the READYS reproduction.
#
#   make check       — everything a PR must pass: build, vet, tests, decision-
#                      equivalence gate, fuzzing, race tests, portability gate,
#                      observability, chaos and stream smoke tests, paper
#                      tables
#   make equiv       — decision-equivalence gate: the differential harness
#                      (every scheduling path against its reference, bit for
#                      bit) and the tests that hold each optimised piece to
#                      the code it replaced
#   make fuzz        — a short native-fuzzing run of each decoder of outside
#                      input (arrival traces, schedule requests and the
#                      gateway's reading of them, checkpoints, trace-context
#                      headers);
#                      their seeds also run under go test
#   make race        — just the race-detector runs (serving, agent core, RL,
#                      gateway, trace ring, fault-injecting simulator,
#                      streaming arrivals)
#   make portable    — cross-build for arm64 (the only thing here that
#                      compiles the non-amd64 kernel file) and require that no
#                      product anywhere in the library was fused into its add
#   make obs-smoke   — end-to-end telemetry/trace pipeline check: telemetry
#                      JSONL, sim trace, stream trace and their merge (the
#                      gateway's cross-process trace is checked by
#                      TestGatewayFailoverChaos under make test)
#   make chaos-smoke — single-seed fault-injection runs of MCT and READYS
#                      through readys-sim (plan generation, kill/re-execution,
#                      strict validator)
#   make stream-smoke— tiny online-scheduling run through readys-stream
#                      (Poisson arrivals, faults mid-stream, strict union
#                      validation, trace checked by readys-obs-check), a
#                      stream that outgrows its trace ring, and a written
#                      arrival trace replayed to the same schedule
#   make tables      — paper-table gate: regenerate the six deterministic
#                      results/*.csv from ./models and cmp them byte for byte
#   make test-times  — one uncached `go test ./...`: each package's time, the
#                      root package's and their sum (a test removed outside
#                      the root package shows in the sum, not in wall time)
#   make serve       — run the scheduling daemon against ./models

GO ?= go
OBS_TMP ?= /tmp/readys-obs-smoke

.PHONY: check build vet test equiv fuzz race portable obs-smoke chaos-smoke stream-smoke tables test-times serve gateway

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

# Decision-equivalence gate: TestDifferential, the differential harness whose
# doc lists its relations (every path that schedules a DAG against its
# reference), and each test that holds an optimised piece to the code it
# replaced bit for bit or bounds what it keeps or allocates. These also run
# under `make test`; a failure here reads as a path that diverged.
equiv:
	$(GO) test -run 'TestDifferential|TestSegmentOpsMatchPerSegmentTapes|TestLinearReLUSegMatchesThreeOps|TestDropContract|TestInferenceTapeRecordsNoSteps|TestInferenceBindingMatchesFreshTapes|TestIncremental|TestPolicyDecideAllocFree|TestBatchedForwardBitIdentical|TestMemoScopedToStateVersion|TestTrainingRolloutMatchesTape|TestEpisodeLogReproducesStates|TestBatchedUpdateBitIdentical|TestHistoryMatchesParentGolden|TestTrainCostBounded|TestUpdateAllocFree|TestPassSplitContract|TestUpdateTapeRetainsBounded|TestRolloutLogsRetainBounded|TestEpisodeLogReuseIsolated|TestEvaluatorReuseBitIdentical|TestTopoOrderMatchesSortEveryPop|TestReverseTopoFrom|TestDescendantAccumulator|TestRunnerReuseBitIdentical|TestClusterLiveWindowBounded|TestClusterRetiresFinishedJobs|TestKeyedDraw|TestReplanHEFTMatchesHEFTAtSigmaZero|TestStreamCostFlat|TestHEFTPerJobRanksMatchUnion|TestStreamValidateCatchesRetiredJobViolation|TestLeasedPolicyMatchesFreshPolicy|TestLeasedPolicyFollowsPublishedWeights|TestScheduleRequestAllocBounded|TestExplicitDAGTemplateMatchesColdBuild|TestSwitchingModelsAllocatesNothing|TestSpanExportsAsCompleteWithSpanArgs|TestSpanAllocatesNothing|TestTracerRingBytesFixed|TestRecordHasNoPointers|TestTracerStringTableBounded' ./...

# Native fuzzing of the decoders that read outside bytes: an arrival trace
# either errors or builds every graph within taskgraph.MaxTasks and
# round-trips; a /v1/schedule body either errors or builds an acyclic graph
# within MaxDAGTasks, row for row as the task-by-task build did; the gateway
# accepts and routes every body a replica accepts, as the replica's full
# decode would route it; a checkpoint either errors or sets every parameter and
# round-trips bit for bit; trace-context headers of any bytes come back out
# of a span export by the header contract (an ID of 1–16 hex digits keeps its
# value, anything else gets a fresh trace), and no byte of them stays in the
# trace ring. A failing input is written
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
# internal/autograd and internal/nn (the kernels and tapes every rollout and
# serving goroutine runs, each tape on its own free list), internal/obs (the
# trace ring and the metrics every request goroutine writes), internal/serve
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
	$(GO) test -race ./internal/tensor/... ./internal/autograd/... ./internal/nn/... ./internal/obs/... ./internal/serve/... ./internal/core/... ./internal/rl/... ./internal/gateway/... ./internal/sim/... ./internal/stream/...

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
# of a client → gateway → replica trace is TestGatewayFailoverChaos's, under
# make test.
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

# Single-seed chaos check: tiny DAGs scheduled through readys-sim with fault
# injection on, by MCT and by READYS (the committed Cholesky T=4 agent, whose
# ∅ rule reads which resources are up). Exercises plan generation, in-flight
# kills, re-execution and the strict fault-aware validator (readys-sim fails
# hard if any slice overlaps an outage or a duration leaves the timing
# envelope).
chaos-smoke:
	$(GO) run ./cmd/readys-sim -kind cholesky -T 3 -cpus 1 -gpus 1 -sigma 0.1 \
		-policy mct -fault-rate 2 -seed 7 > /dev/null
	$(GO) run ./cmd/readys-sim -kind cholesky -T 4 -cpus 2 -gpus 2 -sigma 0.1 \
		-policy readys -models models -fault-rate 2 -seed 7 > /dev/null
	@echo chaos-smoke OK

# Online-scheduling smoke: a tiny mixed-family Poisson stream scheduled
# through readys-stream with faults firing mid-stream. Exercises arrivals on
# the persistent cluster, kills/re-execution across jobs and the strict union
# validator (readys-stream fails hard on an invalid schedule), then checks the
# emitted Chrome trace with readys-obs-check. A 4000-job stream then outgrows
# its trace ring, whose export must still validate: the ring keeps the most
# recent window, and each of its records is a whole event — a task attempt is
# one complete slice, recorded when it ends. Then a READYS stream is written
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

# Test time by package. Packages run in parallel, so the wall time of
# `go test ./...` is about the root package's (the differential harness)
# whatever the others take; the sum of the package times is what a removal
# elsewhere moves. One run; compare several, alternated, between two trees.
test-times:
	@root=$$($(GO) list .); out=$$($(GO) test -count=1 ./... 2>&1); status=$$?; \
	if [ $$status != 0 ]; then echo "$$out"; exit $$status; fi; \
	echo "$$out" | awk -v root="$$root" '$$1 == "ok" { t = $$3; sub(/s$$/, "", t); n++; sum += t; \
		if ($$2 == root) r = t; printf "%8.2f s  %s\n", t, $$2 } \
		END { printf "%8.2f s  root package (%s)\n%8.2f s  sum of %d packages\n", r, root, sum, n }'

serve:
	$(GO) run ./cmd/readys-serve -addr :8080 -models models

# Front two local replicas started by hand, e.g.
#   make serve & $(GO) run ./cmd/readys-serve -addr :8081 -models models &
gateway:
	$(GO) run ./cmd/readys-gateway -addr :8090 -replicas http://127.0.0.1:8080,http://127.0.0.1:8081
