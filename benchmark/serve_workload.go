package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"readys/internal/core"
	"readys/internal/platform"
	"readys/internal/serve"
)

// serveSpec is what tells the two serve workloads apart.
type serveSpec struct {
	name        string
	withGateway bool
	clients     int
	tiles       int
	withDAG     bool
	// opsPerBudgetSecond fixes the op count: each of the measured phase's
	// rounds sends seconds × opsPerBudgetSecond ÷ measuredRounds requests. It
	// is a constant, not a measurement, so the same -seconds is the same work
	// everywhere; it is set so that the phase fills about 85 % of -seconds on
	// the 2-core reference box when the host is quiet.
	opsPerBudgetSecond float64
	warmOps            int
	probeReps          int // paired front-door/direct probes per class
	replayReps         int // in-process replays per class
}

func runServeGateway(cfg runConfig) (*outcome, error) {
	return runServe(cfg, serveSpec{
		name: "serve_gw_t4", withGateway: true, clients: 2, tiles: 4, withDAG: true,
		opsPerBudgetSecond: 1100, warmOps: 400, probeReps: 100, replayReps: 20,
	})
}

func runServeDirect(cfg runConfig) (*outcome, error) {
	return runServe(cfg, serveSpec{
		name: "serve_direct_t8", withGateway: false, clients: 1, tiles: 8, withDAG: false,
		opsPerBudgetSecond: 38, warmOps: 12, probeReps: 12, replayReps: 12,
	})
}

func runServe(cfg runConfig, spec serveSpec) (*outcome, error) {
	if cfg.smoke {
		spec.tiles = 4 // the path is the same; a T=8 rollout alone takes 20 ms
	}
	classes, err := serveClasses(spec.tiles, spec.withDAG)
	if err != nil {
		return nil, err
	}
	roundOps := int(float64(cfg.seconds) * spec.opsPerBudgetSecond / measuredRounds)
	setups := setupRepetitions
	if cfg.smoke {
		roundOps, setups = len(classes), 1
		spec.warmOps, spec.probeReps, spec.replayReps = len(classes), 1, 1
	}
	if cfg.trace {
		setups = 1
	}

	// Set-up, several times over: start the servers, cold-load the
	// checkpoints (the per-model probes do that), run a short warm-up that
	// opens every connection and fills registry and pools. The last one stays
	// up for the measured phase.
	o := newOutcome(cfg)
	var topo *topology
	var setup setupTimer
	for i := 0; i < setups; i++ {
		began := setup.begin()
		if topo != nil {
			topo.close()
		}
		topo, err = buildTopology(cfg.modelsDir(), spec.withGateway, spec.clients, classes, cfg.ports)
		if err != nil {
			return nil, err
		}
		if err := topo.probeModels(classes, cfg.seed); err != nil {
			topo.close()
			return nil, err
		}
		warm := topo.runRound(classes, cfg.seed, -1-i, spec.warmOps, spec.clients, nil)
		if warm.failed > 0 {
			topo.close()
			return nil, fmt.Errorf("warm-up: %d of %d requests failed: %s", warm.failed, warm.attempted, warm.firstWhy)
		}
		setup.end(began)
	}
	defer topo.close()

	if cfg.trace {
		return o, traceServe(cfg, spec, topo, classes, roundOps, o)
	}

	// Closed-loop rounds of a fixed number of ops: every round replays the
	// same class sequence with fresh simulation seeds.
	var rounds []roundStats
	var quality, elapsedMs, latencyMs float64
	answered := 0
	m := startMeter()
	for r := 0; r < measuredRounds; r++ {
		cfg.host.sample()
		res := topo.runRound(classes, cfg.seed, r, roundOps, spec.clients, nil)
		o.attempted += res.attempted
		o.failed += res.failed
		if res.firstWhy != "" {
			o.problemf("round %d: %s", r, res.firstWhy)
		}
		m.roundEnd()
		if len(res.latMs) == 0 {
			continue
		}
		rounds = append(rounds, summariseRound(res.latMs, res.wallS, serveMaxTailPct))
		answered += len(res.latMs)
		quality += res.quality
		elapsedMs += res.elapsedMs
		latencyMs += res.latencySumMs
	}
	cfg.host.sample()
	used := m.finish()
	if len(rounds) == 0 {
		return nil, fmt.Errorf("no request succeeded: %v", o.problems)
	}
	noteRounds(o, rounds)
	e2eMetrics(o, setup, medianOfRounds(rounds), used, o.attempted, quality/float64(answered))
	o.notef("rounds=%d of %d ops, clients=%d, tail=p%g rollout_share=%.3f",
		len(rounds), roundOps, spec.clients, rounds[0].tailPct, elapsedMs/latencyMs)
	if spec.withGateway {
		if f := topo.gw.Metrics().Failovers(); f != 0 {
			o.problemf("gateway failed over %d times on a healthy fleet", f)
		}
		o.notef("replica requests %d / %d", topo.nodes[0].requests.Load(), topo.nodes[1].requests.Load())
	}
	return o, nil
}

// serveMaxTailPct caps the tail percentile of the serve workloads at p95, the
// percentile a caller of a scheduler would put a limit on.
const serveMaxTailPct = 95

// traceServe is the traced pass of a serve workload: pairs of rounds that
// replay identical inputs with the span recorder off and on, then the
// per-layer probes.
func traceServe(cfg runConfig, spec serveSpec, topo *topology, classes []*reqClass, opsPerRound int, o *outcome) error {
	pairs := 2
	if cfg.smoke {
		pairs = 1
	}
	rec := newRecorder()
	var plainRounds []roundStats
	var plainRate, tracedRate []float64
	var elapsedMs, latencyMs, plainQuality float64
	ops, rejected, plainAnswered := 0, 0, 0
	m := startMeter()
	for p := 0; p < pairs; p++ {
		cfg.host.sample()
		plain := topo.runRound(classes, cfg.seed, p, opsPerRound, spec.clients, nil)
		cfg.host.sample()
		traced := topo.runRound(classes, cfg.seed, p, opsPerRound, spec.clients, rec)
		for _, res := range []serveRound{plain, traced} {
			o.attempted += res.attempted
			o.failed += res.failed
			rejected += res.rejected
			if res.firstWhy != "" {
				o.problemf("traced pass, pair %d: %s", p, res.firstWhy)
			}
			ops += res.attempted
			elapsedMs += res.elapsedMs
			latencyMs += res.latencySumMs
		}
		// The same bodies must get the same plans: a difference here is a
		// failed run, not a noisy one.
		if plain.failed == 0 && traced.failed == 0 && plain.quality != traced.quality {
			o.problemf("pair %d: identical requests scored %v untraced and %v traced", p, plain.quality, traced.quality)
		}
		if len(plain.latMs) > 0 {
			plainRounds = append(plainRounds, summariseRound(plain.latMs, plain.wallS, serveMaxTailPct))
			plainQuality += plain.quality
			plainAnswered += len(plain.latMs)
		}
		plainRate = append(plainRate, float64(plain.attempted)/plain.wallS)
		tracedRate = append(tracedRate, float64(traced.attempted)/traced.wallS)
	}
	cfg.host.sample()
	used := m.finish()
	procMetrics(o, used, ops)
	if plainAnswered > 0 {
		demotedMetrics(o, medianOfRounds(plainRounds), plainQuality/float64(plainAnswered))
	}
	o.metrics["trace.overhead_share"] = 1 - median(tracedRate)/median(plainRate)
	o.metrics["trace.spans"] = float64(rec.len())
	if latencyMs > 0 {
		o.metrics["serve.rollout_share"] = elapsedMs / latencyMs
	}

	self := selfTimes(rec.spans)
	o.metrics["span.client_self_us"] = self["client.request"]
	o.metrics["span.gateway_self_us"] = self["gateway.handler"]
	o.metrics["span.serve_self_us"] = self["serve.handler"]
	o.metrics["span.rollout_us"] = self["serve.rollout"]

	if spec.withGateway {
		o.metrics["gateway.failovers"] = float64(topo.gw.Metrics().Failovers())
		total := topo.nodes[0].requests.Load() + topo.nodes[1].requests.Load()
		o.metrics["gateway.replica_split"] = float64(topo.nodes[0].requests.Load()) / float64(total)
		req, err := classes[0].request(1)
		if err != nil {
			return err
		}
		o.metrics["gateway.route_us"] = timeNs(o.reps(2000), func() { routeSink = topo.gw.RouteFor(req) }) / 1e3
	}
	var hits, misses uint64
	for _, srv := range topo.replicas {
		_, h, ms, _ := srv.Registry().Stats()
		hits, misses = hits+h, misses+ms
	}
	o.metrics["serve.registry_hit_share"] = float64(hits) / float64(hits+misses)
	o.metrics["serve.rejected"] = float64(rejected)

	replayUs, err := serveProbes(cfg, spec, topo, classes, o)
	if err != nil {
		return err
	}
	// What the layers explain of a traced request: the three self times the
	// spans give (client and loopback, gateway hop, replica HTTP/JSON/
	// registry/pool) plus the rollout as the in-process replays cost it.
	if clientUs := self["client.request"] + self["gateway.handler"] + self["serve.handler"] + self["serve.rollout"]; clientUs > 0 {
		o.metrics["trace.accounted_share"] = (self["client.request"] + self["gateway.handler"] + self["serve.handler"] + replayUs) / clientUs
	}
	obsProbes(o)

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	return rec.writeChromeTrace(filepath.Join(cfg.outDir, "trace_"+spec.name+".json"))
}

var routeSink string

// serveProbes times the serving layers one call at a time, from outside, on
// the warm topology. It returns the mean cost in µs of what a replica does
// inside elapsed_ms (rollout, validation, HEFT, MCT), as replayed in-process.
func serveProbes(cfg runConfig, spec serveSpec, topo *topology, classes []*reqClass, o *outcome) (float64, error) {
	reg := serve.NewRegistry(cfg.modelsDir(), 8, 2)
	var (
		frontUs, directUs, handlerUs   []float64
		decodeGen, decodeDAG, encodeUs []float64
		coldMs                         []float64
		replays                        replayTotals
		hidden                         int
		sampleResp                     []byte
	)
	for ci, c := range classes {
		cfg.host.sample()
		owner := topo.replicas[0]
		if spec.withGateway {
			owner = topo.replicas[wantOwner[c.kind]]
		}
		start := time.Now()
		lease, hit, err := reg.Acquire(c.kind, c.t, servePlatformCPUs, servePlatformGPUs)
		if err != nil {
			return 0, fmt.Errorf("probe registry: %w", err)
		}
		if !hit {
			coldMs = append(coldMs, float64(time.Since(start))/float64(time.Millisecond))
		}
		agent := lease.Agent()
		hidden = agent.Cfg.Hidden
		var front, direct, handler []float64
		var body []byte
		for k := 0; k < spec.probeReps; k++ {
			seed := mixSeed(cfg.seed, int64(1000+ci), int64(k))
			body = c.body(body, seed)
			f := post(topo.client, topo.target, body, c.tasks, 0)
			d := post(topo.client, topo.ownerURL(c), body, c.tasks, 0)
			o.attempted += 2
			if !f.ok || !d.ok {
				o.failed++
				o.problemf("probe %s: %s%s", c.name, f.why, d.why)
				continue
			}
			front = append(front, usOf(f.latency))
			direct = append(direct, usOf(d.latency))

			hr := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body))
			hw := httptest.NewRecorder()
			start := time.Now()
			owner.Handler().ServeHTTP(hw, hr)
			handler = append(handler, usOf(time.Since(start)))
			if hw.Code != http.StatusOK {
				o.problemf("probe %s: handler answered %d", c.name, hw.Code)
			}
			sampleResp = hw.Body.Bytes()

			if k >= spec.replayReps {
				continue
			}
			req, err := c.request(seed)
			if err != nil {
				return 0, err
			}
			graph, err := req.BuildGraph()
			if err != nil {
				return 0, err
			}
			prob := core.Problem{Graph: graph, Platform: platform.New(req.CPUs, req.GPUs), Timing: platform.TimingFor(c.kind), Sigma: req.Sigma}
			if err := replays.replay(replayCase{agent: agent, prob: prob, seed: seed, wantMakespan: d.makespan}); err != nil {
				o.problemf("replay %s seed %d: %v", c.name, seed, err)
			}
		}
		lease.Release()
		frontUs = append(frontUs, median(front))
		directUs = append(directUs, median(direct))
		handlerUs = append(handlerUs, median(handler))

		decode := timeNs(o.reps(200), func() {
			var req serve.ScheduleRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if dec.Decode(&req) == nil && req.Validate() == nil {
				graphSink, _ = req.BuildGraph()
			}
		}) / 1e3
		if c.explicit {
			decodeDAG = append(decodeDAG, decode)
		} else {
			decodeGen = append(decodeGen, decode)
		}
		var resp serve.ScheduleResponse
		if err := json.Unmarshal(sampleResp, &resp); err == nil {
			encodeUs = append(encodeUs, timeNs(o.reps(200), func() { bytesSink, _ = json.Marshal(resp) })/1e3)
		}
	}
	if spec.withGateway {
		o.metrics["gateway.hop_us"] = mean(frontUs) - mean(directUs)
	}
	o.metrics["serve.handler_us"] = mean(handlerUs)
	o.metrics["serve.transport_us"] = mean(directUs) - mean(handlerUs)
	o.metrics["serve.decode_gen_us"] = mean(decodeGen)
	o.metrics["serve.decode_dag_us"] = mean(decodeDAG)
	o.metrics["serve.encode_us"] = mean(encodeUs)
	o.metrics["serve.acquire_cold_ms"] = mean(coldMs)
	c0 := classes[0]
	o.metrics["serve.acquire_warm_us"] = timeNs(o.reps(2000), func() {
		if lease, _, err := reg.Acquire(c0.kind, c0.t, servePlatformCPUs, servePlatformGPUs); err == nil {
			lease.Release()
		}
	}) / 1e3

	pool := serve.NewPool(2, 64)
	ctx := context.Background()
	o.metrics["serve.pool_handoff_us"] = timeNs(o.reps(2000), func() { _ = pool.Do(ctx, func() {}) }) / 1e3
	if err := pool.Shutdown(ctx); err != nil {
		return 0, err
	}

	replays.report(o, hidden)
	if replays.ops == 0 {
		return 0, nil
	}
	perOp := usOf(replays.rollout)/float64(replays.ops) + meanUs(replays.validate) + meanUs(replays.heft) + meanUs(replays.mct)
	return perOp, nil
}

var bytesSink []byte
