# Pre-merge checks for the READYS reproduction.
#
#   make check       — everything a PR must pass: build, vet, tests, decision-
#                      equivalence gate, fuzzing, race tests, portability gate,
#                      observability smoke test, fleet, stream and gateway
#                      smoke tests, paper tables
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
#                      fleet, fault-injecting simulator, streaming arrivals)
#   make portable    — cross-build for arm64 (the only thing here that
#                      compiles the non-amd64 kernel file) and require that no
#                      product anywhere in the library was fused into its add
#   make obs-smoke   — end-to-end telemetry/trace pipeline check: telemetry
#                      JSONL, sim trace, flight recorder, and a dispatcher +
#                      worker pair whose merged cross-process trace must
#                      link-validate
#   make chaos-smoke — single-seed fault-injection run through readys-sim
#                      (plan generation, kill/re-execution, strict validator)
#   make stream-smoke— tiny online-scheduling run through readys-stream
#                      (Poisson arrivals, faults mid-stream, strict union
#                      validation, trace checked by readys-obs-check)
#   make fleet-smoke — dispatcher + worker end-to-end check (train job,
#                      artifact verification, train → serve publish)
#   make gateway-smoke — shard-router end-to-end check: two replicas behind
#                      readys-gateway, a replica killed under
#                      concurrent load (failover, identical responses), and
#                      the client → gateway → replica trace link-validated
#   make tables      — paper-table gate: regenerate the six deterministic
#                      results/*.csv from ./models and cmp them byte for byte
#   make bench-serve — serving-throughput benchmark
#   make serve       — run the scheduling daemon against ./models
#   make fleet       — run the fleet dispatcher, publishing into ./models

GO ?= go
OBS_TMP ?= /tmp/readys-obs-smoke

.PHONY: check build vet test equiv fuzz race portable obs-smoke chaos-smoke stream-smoke fleet-smoke gateway-smoke tables bench-serve serve fleet gateway

check: build vet test equiv fuzz race portable obs-smoke chaos-smoke stream-smoke fleet-smoke gateway-smoke tables

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
# accumulator vs DescendantFeatures, HEFT-per-job ranks vs UpwardRanksFor),
# and TestStreamCostFlat / TestMemoScopedToStateVersion fail if a per-arrival
# pass over the union DAG or a stream-long memo comes back. The training path
# is held to the per-decision tapes it replaced: segment ops vs one tape per
# range (TestSegmentOpsMatchPerSegmentTapes), the fused dense-layer node vs
# its three ops and the input gradient vs the ∂C·Wᵀ dot loop
# (TestLinearReLUSegMatchesThreeOps), rollouts on the inference tape vs a
# per-decision-tape rollout kept in the test file
# (TestTrainingRolloutMatchesTape), the width-d pass vs width 1 vs what the
# rollout recorded (TestBatchedForwardBitIdentical),
# gradients vs the per-decision update kept in the test file
# (TestBatchedUpdateBitIdentical), whole Histories vs files the old trainer
# wrote (TestHistoryMatchesParentGolden), and TestTrainCostBounded fails if
# an episode is recorded in memory the trainer does not keep. The episode log
# is held to deep copies of the encoder's states decision by decision
# (TestEpisodeLogReproducesStates: three factorisations, faults, fault
# features, directed, no incremental encoder, mid-episode stream arrivals), a reused log and resident rollout policy to fresh ones
# (TestEpisodeLogReuseIsolated: long then short, short then long, after an
# error mid-episode), and rl.Evaluate's one policy to one per run
# (TestEvaluateResidentPolicyBitIdentical). The serving path's resident
# policies, simulator memory and problem templates are held to ones built
# fresh per request (TestLeasedPolicyMatchesFreshPolicy: graph sizes up and
# down, explicit DAGs, eviction;
# TestLeasedPolicyFollowsPublishedWeights for Publish/Invalidate; a reused
# sim.Runner to a new one: TestRunnerReuseBitIdentical), its typed spans to the
# map path's exported bytes (TestSpanExportsAsCompleteWithSpanArgs), and
# TestScheduleRequestAllocBounded / TestSpanAllocatesNothing /
# TestTracerRingBytesFixed fail if a request rebuilds its problem or state or a
# span boxes its attributes again; TestRecordHasNoPointers fails if a ring
# record grows past 96 bytes or holds a pointer the collector must scan, and
# TestTracerStringTableBounded if the ring's string table keeps strings no
# live record names. These also run under `make test`.
equiv:
	$(GO) test -run 'TestSegmentOpsMatchPerSegmentTapes|TestLinearReLUSegMatchesThreeOps' ./internal/autograd/
	$(GO) test -run 'TestInferenceBindingMatchesFreshTapes' ./internal/nn/
	$(GO) test -run 'TestIncremental|TestServingPolicyResultIdentical|TestPolicyDecideAllocFree|TestBatchedForwardBitIdentical|TestMemoScopedToStateVersion|TestTrainingRolloutMatchesTape|TestEpisodeLogReproducesStates' ./internal/core/
	$(GO) test -run 'TestBatchedUpdateBitIdentical|TestHistoryMatchesParentGolden|TestTrainCostBounded|TestStreamTrainingWorkerInvariance|TestA2CFaultTrainingBitIdenticalAcrossWorkers|TestEpisodeLogReuseIsolated|TestEvaluateResidentPolicyBitIdentical' ./internal/rl/
	$(GO) test -run 'TestTopoOrderMatchesSortEveryPop|TestReverseTopoFrom|TestDescendantAccumulator' ./internal/taskgraph/
	$(GO) test -run 'TestRunnerReuseBitIdentical' ./internal/sim/
	$(GO) test -run 'TestStreamIncrementalIdentical|TestStreamCostFlat|TestHEFTPerJobRanksMatchUnion' ./internal/stream/
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

# Concurrency-sensitive packages run under the race detector: internal/serve
# (registry, pool, handlers, and leases handing resident policies from one
# worker to the next — TestConcurrentLeasedPolicies), internal/core
# (shared-agent inference), internal/rl (parallel batch
# rollouts on resident per-worker policies recording into per-slot episode
# logs — TestEpisodeLogReuseIsolated), internal/fleet (dispatcher, leases,
# workers), internal/gateway (health prober, concurrent failover),
# internal/sim (fault injection under parallel rollouts), and internal/stream
# (stream rollouts share agents across workers).
race:
	$(GO) test -race ./internal/serve/... ./internal/core/... ./internal/rl/... ./internal/fleet/... ./internal/gateway/... ./internal/sim/... ./internal/stream/...

# Portability gate. internal/tensor's assembly exists for amd64 only; every
# other architecture runs the Go loops of axpy.go/ops.go behind
# axpy_noasm.go, which nothing else on an amd64 box compiles — shared code
# that names an amd64-only symbol breaks them silently. And where the target
# has FMA the compiler fuses y += a*x unless the product is written
# float64(a*x), rounding once where VMULPD/VADDPD and amd64's scalar code round
# twice — in the kernels, the tape, the simulator's clock, the schedulers'
# finish times and the tables' statistics alike. Pure Go, no cgo: the
# cross-build works offline. The disassembly is of the package archives (the
# root package and every internal one; the commands' mains compute nothing
# of their own), so it covers functions no command links.
PORTABLE_TMP ?= /tmp/readys-portable
PORTABLE_PKGS = . $(wildcard internal/*)
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
# non-empty. Phase 2 artifacts: a READYS streaming run's flight recorder
# summarized by readys-obs-check and its exported readys_decide_* counters
# (∅ answers included),
# and a real dispatcher + worker pair (fleet smoke)
# whose two per-process span exports are merged — both by the smoke itself
# and again through readys-obs-check -merge — and must pass cross-process
# parent-link validation (-links).
obs-smoke:
	rm -rf $(OBS_TMP) && mkdir -p $(OBS_TMP)
	$(GO) run ./cmd/readys-train -kind cholesky -T 2 -episodes 3 -quiet \
		-out $(OBS_TMP)/models -telemetry $(OBS_TMP)/train.jsonl
	$(GO) run ./cmd/readys-sim -kind cholesky -T 2 -policy mct \
		-trace $(OBS_TMP)/trace.json > /dev/null
	$(GO) run ./cmd/readys-obs-check -jsonl $(OBS_TMP)/train.jsonl \
		-trace $(OBS_TMP)/trace.json
	$(GO) run ./cmd/readys-stream -rate 6 -jobs 6 -sigma 0.1 \
		-policy readys -models models -faults -fault-rate 1 -seed 7 -quiet \
		-flight $(OBS_TMP)/flight.jsonl -metrics $(OBS_TMP)/metrics.prom > /dev/null
	for c in forwards memo_hits window_rows rebuilds idle; do \
		grep -q "^# TYPE readys_decide_$${c}_total counter" $(OBS_TMP)/metrics.prom || exit 1; done
	grep -q '^readys_decide_forwards_total [1-9]' $(OBS_TMP)/metrics.prom
	$(GO) run ./cmd/readys-obs-check -flight $(OBS_TMP)/flight.jsonl
	$(GO) run ./cmd/readys-obs-check -flight $(OBS_TMP)/flight.jsonl -flight-kind decision
	$(GO) run ./cmd/readys-fleet -smoke -trace-out $(OBS_TMP)/fleet
	$(GO) run ./cmd/readys-obs-check -merge $(OBS_TMP)/fleet/remerged.json \
		$(OBS_TMP)/fleet/dispatcher.json $(OBS_TMP)/fleet/worker.json
	$(GO) run ./cmd/readys-obs-check -trace $(OBS_TMP)/fleet/remerged.json -links
	rm -rf $(OBS_TMP)

# Single-seed chaos check: a tiny DAG scheduled through readys-sim with fault
# injection on. Exercises plan generation, in-flight kills, re-execution and
# the strict fault-aware validator (readys-sim fails hard if any slice
# overlaps an outage or a duration leaves the timing envelope).
chaos-smoke:
	$(GO) run ./cmd/readys-sim -kind cholesky -T 3 -cpus 1 -gpus 1 -sigma 0.1 \
		-policy mct -faults -fault-rate 2 -seed 7 > /dev/null
	@echo chaos-smoke OK

# Online-scheduling smoke: a tiny mixed-family Poisson stream scheduled
# through readys-stream with faults firing mid-stream. Exercises arrivals on
# the persistent cluster, kills/re-execution across jobs and the strict union
# validator (readys-stream fails hard on an invalid schedule), then checks the
# emitted Chrome trace with readys-obs-check.
STREAM_TMP ?= /tmp/readys-stream-smoke
stream-smoke:
	rm -rf $(STREAM_TMP) && mkdir -p $(STREAM_TMP)
	$(GO) run ./cmd/readys-stream -rate 6 -jobs 6 -sigma 0.1 \
		-policy heft-per-job -faults -fault-rate 1 -seed 7 -quiet \
		-trace $(STREAM_TMP)/trace.json > /dev/null
	$(GO) run ./cmd/readys-obs-check -trace $(STREAM_TMP)/trace.json
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

# End-to-end fleet check: an in-process dispatcher and worker run one tiny
# train job through the wire protocol, then the checkpoint artifact, history
# JSONL and the published train → serve copy are verified.
fleet-smoke:
	$(GO) run ./cmd/readys-fleet -smoke

# End-to-end gateway check: two in-process serve replicas behind
# readys-gateway. Phase 1 routes a concurrent burst by model hash, phase 2
# kills the owning replica and requires transparent failover with responses
# identical to the pre-kill run, phase 3 requires each replica's trace to hold
# one rollout span per request it answered (forwards ≤ decisions) and no
# per-decision span, and the gateway's one request span per schedule request,
# with no span for the /healthz probes and /metrics scrapes the smoke sends
# four times a second throughout, and exports client/gateway/replica span
# files whose merge must pass cross-process parent-link validation.
GW_TMP ?= /tmp/readys-gateway-smoke
gateway-smoke:
	rm -rf $(GW_TMP) && mkdir -p $(GW_TMP)
	$(GO) run ./cmd/readys-gateway -smoke -trace-out $(GW_TMP)
	$(GO) run ./cmd/readys-obs-check -merge $(GW_TMP)/merged.json \
		$(GW_TMP)/client.json $(GW_TMP)/gateway.json \
		$(GW_TMP)/replica1.json $(GW_TMP)/replica2.json
	$(GO) run ./cmd/readys-obs-check -trace $(GW_TMP)/merged.json -links
	rm -rf $(GW_TMP)
	@echo gateway-smoke OK

serve:
	$(GO) run ./cmd/readys-serve -addr :8080 -models models

fleet:
	$(GO) run ./cmd/readys-fleet -addr :9090 -dir fleet -publish models

# Front two local replicas started by hand, e.g.
#   make serve & $(GO) run ./cmd/readys-serve -addr :8081 -models models &
gateway:
	$(GO) run ./cmd/readys-gateway -addr :8090 -replicas http://127.0.0.1:8080,http://127.0.0.1:8081
