package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"readys/internal/core"
	"readys/internal/nn"
	"readys/internal/rl"
	"readys/internal/taskgraph"
)

const (
	trainWorkers = 2
	// trainUpdatesPerBudgetSecond fixes the episode count the way
	// serveSpec.opsPerBudgetSecond does: ≈85 % of the 6.5 updates/s the
	// 2-core reference box trains at from the converged checkpoint.
	trainUpdatesPerBudgetSecond = 5.5
)

// trainSpec sizes a training run: the updates of one round (the measured
// phase trains measuredRounds of them in one Run, each of the traced pass's
// three trainings one) and the warm-up's.
type trainSpec struct {
	tiles                     int
	roundUpdates, warmUpdates int
}

func trainSpecFor(cfg runConfig) trainSpec {
	if cfg.smoke {
		return trainSpec{tiles: 4, roundUpdates: 1, warmUpdates: 1}
	}
	return trainSpec{tiles: 6, roundUpdates: int(float64(cfg.seconds) * trainUpdatesPerBudgetSecond / measuredRounds), warmUpdates: 2}
}

func (s trainSpec) problem() core.Problem {
	return core.NewProblem(taskgraph.Cholesky, s.tiles, 2, 2, 0.1)
}

func (s trainSpec) checkpoint() string {
	return fmt.Sprintf("readys_cholesky_T%d_2c2g_w2_l2_h32.json", s.tiles)
}

// newTrainer builds the default agent (w2 l2 h32), loads the committed
// Cholesky T=6 checkpoint into it and returns its A2C trainer; seed drives the
// duration noise and action sampling of every episode.
//
// Training continues a converged policy instead of starting from random
// weights: how long an episode of a half-trained policy is, and how good, is
// decided by the path learning happens to take, and over ten seeds that moved
// throughput by 25 % and quality by 20 % with the code unchanged. A converged
// policy does the same work per episode whatever the seed, which is what a
// benchmark needs; forward, backward and Adam are the same code either way.
func newTrainer(modelsDir string, spec trainSpec, seed int64, updates, workers int) (*rl.Trainer, error) {
	agent := core.NewAgent(core.Config{Window: 2, Layers: 2, Hidden: 32, Seed: 1})
	path := filepath.Join(modelsDir, spec.checkpoint())
	if _, err := agent.LoadCheckpoint(path); err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	cfg := rl.DefaultConfig()
	cfg.Episodes = updates * cfg.BatchEpisodes
	cfg.Seed = mixSeed(seed, 0, 2)
	cfg.RolloutWorkers = workers
	return rl.NewTrainer(agent, spec.problem(), cfg), nil
}

// trainTimes is how long every gradient update of a training run took: the
// rollouts of its batch, the backward passes and the Adam step.
type trainTimes struct {
	updates []time.Duration
	wall    time.Duration
}

// trainRun trains and times every update. The progress callback fires once
// per episode after the batch's rollouts, so the time between the callbacks
// that close two batches is one update.
//
// With a meter, the live heap is read once per round of roundUpdates updates:
// in the first callback of the round's last batch, when the tapes of the
// batch's other episodes are still held, which is as full as a training run's
// heap gets. The collection's own time is taken out of that update.
func trainRun(t *rl.Trainer, rec *recorder, m *meter, roundUpdates int) (rl.History, trainTimes, error) {
	batch := t.Cfg.BatchEpisodes
	var tt trainTimes
	var paused time.Duration
	start := time.Now()
	last := start
	hist, err := t.Run(func(st rl.EpisodeStats) {
		if m != nil && st.Episode%batch == 0 && (st.Episode/batch+1)%roundUpdates == 0 {
			began := time.Now()
			m.roundEnd()
			paused += time.Since(began)
		}
		if (st.Episode+1)%batch != 0 {
			return
		}
		now := time.Now()
		tt.updates = append(tt.updates, now.Sub(last)-paused)
		rec.add("rl", "rl.update", "", int64(len(tt.updates)), last, now)
		last, paused = now, 0
	})
	tt.wall = time.Since(start)
	return hist, tt, err
}

// checkHistory requires one finite-loss episode per episode asked for.
func checkHistory(o *outcome, hist rl.History, want int) {
	o.attempted += want
	bad := want - len(hist.Episodes)
	for _, e := range hist.Episodes {
		if math.IsNaN(e.Loss) || math.IsInf(e.Loss, 0) || !(e.Makespan > 0) {
			bad++
		}
	}
	if bad > 0 {
		o.failed += bad
		o.problemf("training: %d of %d episodes missing or with a non-finite loss", bad, want)
	}
}

func runTrain(cfg runConfig) (*outcome, error) {
	spec := trainSpecFor(cfg)
	setups := setupRepetitions
	if cfg.smoke {
		setups = 1
	}
	if cfg.trace {
		setups = 1
	}
	o := newOutcome(cfg)
	updates := measuredRounds * spec.roundUpdates

	// Set-up: build the agent, cold-load its checkpoint, build problem and
	// trainer (which plans the HEFT baseline), then train a throw-away copy
	// for a few updates so the tensor pools and both rollout workers are warm.
	var trainer *rl.Trainer
	var setup setupTimer
	for i := 0; i < setups; i++ {
		began := setup.begin()
		var err error
		if trainer, err = newTrainer(cfg.modelsDir(), spec, cfg.seed, updates, trainWorkers); err != nil {
			return nil, err
		}
		warm, err := newTrainer(cfg.modelsDir(), spec, mixSeed(cfg.seed, -1, 0), spec.warmUpdates, trainWorkers)
		if err != nil {
			return nil, err
		}
		if _, _, err := trainRun(warm, nil, nil, 0); err != nil {
			return nil, fmt.Errorf("warm-up training: %w", err)
		}
		setup.end(began)
	}

	if cfg.trace {
		return o, traceTrain(cfg, spec, o)
	}

	cfg.host.sample()
	m := startMeter()
	hist, times, err := trainRun(trainer, nil, m, spec.roundUpdates)
	used := m.finish()
	cfg.host.sample()
	if err != nil {
		return nil, err
	}
	batch := trainer.Cfg.BatchEpisodes
	episodes := updates * batch
	checkHistory(o, hist, episodes)
	if len(times.updates) != updates {
		return nil, fmt.Errorf("saw %d updates, want %d", len(times.updates), updates)
	}

	rounds, t, tailPct := trainTimed(times, spec.roundUpdates, batch)
	noteRounds(o, rounds)
	e2eMetrics(o, setup, t, used, episodes, trainQuality(hist))
	o.notef("rounds=%d of %d updates, episodes=%d workers=%d tail=p%g of all updates, final_mean_reward=%.4f",
		len(rounds), spec.roundUpdates, episodes, trainWorkers, tailPct, hist.FinalMeanReward(200))
	return o, nil
}

// trainTimed reduces a training run's update times to the timed metrics. One
// Run is a whole measured phase, so its rounds are cut afterwards: equal counts
// of consecutive updates, which follow each other without a gap. A sample is an
// update, worth a batch of episodes. A round holds too few updates for a tail
// of its own: the tail is the percentile of all the run's updates that leaves
// ten beyond it (or the lowest candidate percentile, on a short run).
func trainTimed(times trainTimes, roundUpdates, batch int) ([]roundStats, timed, float64) {
	latMs := make([]float64, len(times.updates))
	for i, d := range times.updates {
		latMs[i] = float64(d) / float64(time.Millisecond)
	}
	var rounds []roundStats
	for i := 0; i+roundUpdates <= len(latMs); i += roundUpdates {
		round := latMs[i : i+roundUpdates]
		rs := summariseRound(round, sumOf(round)/1e3, 99)
		rs.ops *= batch
		rounds = append(rounds, rs)
	}
	t := medianOfRounds(rounds)
	tailPct := tailPercentile(len(latMs))
	t.tailMs = percentile(sortedCopy(latMs), tailPct)
	return rounds, t, tailPct
}

// trainQuality is the mean of HEFT's projected makespan ÷ the episode's
// makespan over every episode of the run (sampled, not greedy, actions).
// Training starts from a converged policy, so the first episode counts like
// the last, and the mean over all of them moves least from seed to seed.
func trainQuality(hist rl.History) float64 {
	var sum float64
	for _, e := range hist.Episodes {
		sum += hist.BaselineMakespan / e.Makespan
	}
	return sum / float64(len(hist.Episodes))
}

// traceTrain is the traced pass. From outside a training run shows one
// boundary, the progress callback, so the spans are the updates; what is
// inside an update comes from paired runs: the same training with the
// recorder off and on, and at one rollout worker instead of two (the history
// is bit-identical at any worker count, so all three do the same work).
func traceTrain(cfg runConfig, spec trainSpec, o *outcome) error {
	updates := spec.roundUpdates
	rolloutBatches := 4
	if cfg.smoke {
		rolloutBatches = 1
	}
	rec := newRecorder()
	m := startMeter()
	var trainers [3]*rl.Trainer
	for i, workers := range []int{trainWorkers, trainWorkers, 1} {
		var err error
		if trainers[i], err = newTrainer(cfg.modelsDir(), spec, cfg.seed, updates, workers); err != nil {
			return err
		}
	}
	cfg.host.sample()
	plainHist, plain, err := trainRun(trainers[0], nil, nil, 0)
	if err != nil {
		return err
	}
	cfg.host.sample()
	tracedHist, traced, err := trainRun(trainers[1], rec, nil, 0)
	if err != nil {
		return err
	}
	cfg.host.sample()
	serialTrainer := trainers[2]
	serialHist, serial, err := trainRun(serialTrainer, nil, nil, 0)
	if err != nil {
		return err
	}
	cfg.host.sample()
	used := m.finish()
	episodes := updates * serialTrainer.Cfg.BatchEpisodes
	for _, h := range []rl.History{plainHist, tracedHist, serialHist} {
		checkHistory(o, h, episodes)
	}
	if q, want := trainQuality(tracedHist), trainQuality(plainHist); q != want || trainQuality(serialHist) != want {
		o.problemf("identical training runs scored %v, %v (traced) and %v (one worker)", want, q, trainQuality(serialHist))
	}
	procMetrics(o, used, 3*episodes)
	_, t, _ := trainTimed(plain, updates, serialTrainer.Cfg.BatchEpisodes)
	demotedMetrics(o, t, trainQuality(plainHist))
	o.metrics["trace.overhead_share"] = 1 - plain.wall.Seconds()/traced.wall.Seconds()
	o.metrics["trace.spans"] = float64(rec.len())
	o.metrics["trace.accounted_share"] = float64(sumDur(traced.updates)) / float64(traced.wall)
	o.metrics["rl.workers_speedup"] = serial.wall.Seconds() / plain.wall.Seconds()

	// One episode rolled out alone, on the trained agent, the way a rollout
	// worker does it; the tapes it recorded are handed back to the pool.
	agent := serialTrainer.Agent
	prob := spec.problem()
	var rolloutS []time.Duration
	for i := 0; i < rolloutBatches*serialTrainer.Cfg.BatchEpisodes; i++ {
		rng := rand.New(rand.NewSource(mixSeed(cfg.seed, 7, int64(i))))
		pol := core.NewTrainingPolicy(agent, rng)
		start := time.Now()
		_, err := prob.Simulate(pol, rng)
		rolloutS = append(rolloutS, time.Since(start))
		if err != nil {
			return err
		}
		for _, st := range pol.Steps {
			st.Forward.Binding.Release()
		}
	}
	rolloutMs := meanUs(rolloutS) / 1e3
	updateMs := meanUs(serial.updates) / 1e3
	batch := float64(serialTrainer.Cfg.BatchEpisodes)
	o.metrics["rl.rollout_ms"] = rolloutMs
	o.metrics["rl.update_ms"] = updateMs - batch*rolloutMs // derived: backward passes + Adam
	o.metrics["rl.rollout_share"] = batch * rolloutMs / updateMs
	// The serving-path view of the same problem: greedy rollouts of the
	// trained agent, layer by layer.
	var replays replayTotals
	for i := 0; i < rolloutBatches; i++ {
		if err := replays.replay(replayCase{agent: agent, prob: prob, seed: mixSeed(cfg.seed, 8, int64(i))}); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	replays.report(o, agent.Cfg.Hidden)
	// Last, because a step moves the weights.
	opt := nn.NewAdam(serialTrainer.Cfg.LR)
	o.metrics["nn.adam_step_us"] = timeNs(o.reps(200), func() { opt.Step(agent.Params()) }) / 1e3
	obsProbes(o)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	return rec.writeChromeTrace(filepath.Join(cfg.outDir, "trace_train_a2c_t6.json"))
}
