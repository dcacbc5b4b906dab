package rl

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"readys/internal/autograd"
	"readys/internal/core"
	"readys/internal/sim"
	"readys/internal/taskgraph"
	"readys/internal/tensor"
)

// accumulatePerDecision is the update as it was before the batched pass, kept
// as the oracle: one width-1 tape per decision, the scalar A2C loss built on
// it, one Backward each, in decision order. Values for advantages and
// bootstraps come from its own forwards, not from what the rollout recorded;
// each state is read back from the episode's log.
func accumulatePerDecision(agent *core.Agent, cfg Config, log *core.EpisodeLog, steps []core.Step, reward float64) (total, policy, value float64) {
	d := len(steps)
	values := make([]float64, d)
	var state core.EncodedState
	for i := range steps {
		fw := agent.Forward(log.State(i, &state))
		values[i] = autograd.Scalar(fw.Value)
		fw.Binding.Release()
	}
	stepRewards := make([]float64, d)
	stepRewards[d-1] = reward
	targets := make([]float64, d)
	ret := 0.0
	for i := d - 1; i >= 0; i-- {
		ret = stepRewards[i] + cfg.Gamma*ret
		targets[i] = ret
		if stepsToEnd := d - 1 - i; cfg.Unroll > 0 && stepsToEnd >= cfg.Unroll {
			targets[i] = math.Pow(cfg.Gamma, float64(cfg.Unroll)) * values[i+cfg.Unroll]
			for k := 0; k < cfg.Unroll; k++ {
				targets[i] += math.Pow(cfg.Gamma, float64(k)) * stepRewards[i+k]
			}
		}
	}
	scale := 1.0 / float64(d)
	for i, st := range steps {
		fw := agent.Forward(log.State(i, &state))
		tp := fw.Binding.Tape
		adv := targets[i] - values[i]
		logp := tp.Pick(fw.LogProbs, st.Action, 0)
		policyLoss := tp.Scale(logp, -adv)
		valueErr := tp.AddConst(fw.Value, -targets[i])
		valueLoss := tp.Scale(tp.Square(valueErr), cfg.ValueScale)
		entropy := fw.Entropy()
		loss := tp.Sub(tp.Add(policyLoss, valueLoss), tp.Scale(entropy, cfg.EntropyBeta))
		loss = tp.Scale(loss, scale)
		tp.Backward(loss)
		policy += autograd.Scalar(policyLoss) * scale
		value += autograd.Scalar(valueLoss) * scale
		total += autograd.Scalar(loss)
		fw.Binding.Release()
	}
	return total, policy, value
}

// maskEveryThird forbids ∅ at every third decision of the training policy it
// wraps: the simulator masks ∅ only in a forced round, which a short episode
// may never reach.
type maskEveryThird struct {
	*core.Policy
	n int
}

func (m *maskEveryThird) Decide(s *sim.State, r int) int {
	m.DisableIdle = m.n%3 == 0
	m.n++
	return m.Policy.Decide(s, r)
}

// TestBatchedUpdateBitIdentical: the gradients one episode leaves in the
// parameters, and the three losses it reports, are == on every element to
// what the per-decision update leaves — for an episode of one pass, one with
// ∅-masked decisions, one of a single decision, one long enough to take
// several passes, and under bootstrapped targets.
func TestBatchedUpdateBitIdentical(t *testing.T) {
	type episode struct {
		name   string
		T      int
		mask   bool
		first  int // keep only this many decisions (0: all)
		passes int // least number of tape passes the episode must take
		tweak  func(*Config)
	}
	agentCfg := core.Config{Window: 2, Layers: 2, Hidden: 16, Seed: 3}
	for _, ep := range []episode{
		{name: "one pass", T: 4, passes: 1},
		{name: "∅-masked decisions", T: 4, mask: true, passes: 1},
		{name: "single decision", T: 4, first: 1, passes: 1},
		{name: "several passes", T: 8, mask: true, passes: 3},
		{name: "unroll", T: 4, passes: 1, tweak: func(c *Config) { c.Unroll = 5 }},
	} {
		t.Run(ep.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Episodes = 1
			if ep.tweak != nil {
				ep.tweak(&cfg)
			}
			prob := core.NewProblem(taskgraph.Cholesky, ep.T, 2, 2, 0.1)
			batched, oracle := core.NewAgent(agentCfg), core.NewAgent(agentCfg)

			rng := rand.New(rand.NewSource(7))
			pol := core.NewTrainingPolicy(batched, rng)
			var runner sim.Policy = pol
			if ep.mask {
				runner = &maskEveryThird{Policy: pol}
			}
			res, err := prob.Simulate(runner, rng)
			if err != nil {
				t.Fatal(err)
			}
			steps := pol.Steps
			if ep.first > 0 {
				steps = steps[:ep.first]
			}
			var rows, masked int
			var state core.EncodedState
			for i := range steps {
				rows += pol.Log.Rows(i)
				if !pol.Log.State(i, &state).AllowIdle {
					masked++
				}
			}
			if ep.mask && (masked == 0 || masked == len(steps)) {
				t.Fatalf("%d of %d decisions mask ∅: both kinds must occur", masked, len(steps))
			}
			if passes := (rows + maxPassRows - 1) / maxPassRows; passes < ep.passes {
				t.Fatalf("%d stacked rows make %d passes, the case wants at least %d", rows, passes, ep.passes)
			}
			reward := core.Reward(prob.HEFTBaseline(), res.Makespan)

			tr := NewTrainer(batched, prob, cfg)
			batched.Params().ZeroGrad()
			oracle.Params().ZeroGrad()
			// Two episodes' worth: the second accumulates onto the first, on a
			// tape that has been Reset in between.
			for round := 0; round < 2; round++ {
				gt, gp, gv := tr.accumulate(pol.Log, steps, reward)
				wt, wp, wv := accumulatePerDecision(oracle, cfg, pol.Log, steps, reward)
				if gt != wt || gp != wp || gv != wv {
					t.Fatalf("round %d: losses (%v, %v, %v), per-decision update (%v, %v, %v)", round, gt, gp, gv, wt, wp, wv)
				}
				for i, p := range batched.Params().All() {
					want := oracle.Params().All()[i].Grad
					for j, g := range p.Grad.Data {
						if math.Float64bits(g) != math.Float64bits(want.Data[j]) {
							t.Fatalf("round %d: ∂%s[%d] = %v, per-decision update %v", round, p.Name, j, g, want.Data[j])
						}
					}
				}
			}
			if g := batched.Params().All()[0].Grad; tensor.Dot(g, g) == 0 {
				t.Fatal("the update left a zero input-layer gradient: nothing was compared")
			}
		})
	}
}

// TestTrainCostBounded makes the cost of the training path a contract. Sizes
// are the golden problem's (Cholesky T=4, 2c2g, w2 l2 h16), 4 updates of 8
// episodes, one rollout worker, on a trainer that has run four updates already
// (so its tape, episode logs and rollout policy own their memory, sized for
// the longest episode they have seen, and count as heap before the run). An
// episode here is one pass of about 250–280 rows, so its widest buffers fall
// into the 4 096- or the 8 192-float class as it is shorter or taller than
// 256 rows; after a single update the tape's free list has met only one, and
// gains seven buffers of the other, ≈ 230 kB, within the run.
//
// Bytes: the per-decision-tape trainer allocated 1 228 850 B per episode here
// (20 282 mallocs), the trainer that copied every decision's state about
// 160 kB, and the one that built a simulator state per episode 22 672 B; this
// one records into logs it keeps and rolls out on a policy and in simulator
// memory it keeps, and read 19 868 B — the update's tape nodes — until each
// dense layer became one node and a first gradient was moved instead of
// copied; it read 12 112 B, and 10 385 B until a backward step became a record
// on the tape instead of a closure and the row-parallel products stopped
// making goroutines; it reads 7 777 B. The bound is about 1.25 × that.
//
// Live heap: an episode is recorded in memory the trainer already holds, so
// nothing new should be live while a batch is being consumed. Sampled after
// the first episode of each batch, after a forced collection, the heap may
// reach 1.1 × the heap before Run. The per-decision-tape trainer held every
// decision's tape across the barrier and sat 8.7 MB above its start here.
func TestTrainCostBounded(t *testing.T) {
	const parentBytesPerEpisode = 1228850
	agent := goldenAgent(core.Config{})
	cfg := DefaultConfig()
	cfg.Episodes = 4 * cfg.BatchEpisodes
	cfg.Seed = 5
	cfg.RolloutWorkers = 1
	prob := goldenProblem()

	tr := NewTrainer(agent, prob, cfg)
	if _, err := tr.Run(nil); err != nil {
		t.Fatal(err)
	}
	var before, after, m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var peak uint64
	_, err := tr.Run(func(st EpisodeStats) {
		if st.Episode%cfg.BatchEpisodes == 0 {
			runtime.GC()
			runtime.ReadMemStats(&m)
			peak = max(peak, m.HeapAlloc)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perEpisode := (after.TotalAlloc - before.TotalAlloc) / uint64(tr.Cfg.Episodes)
	t.Logf("%d B allocated per episode (per-decision-tape trainer %d), live heap %d B before, %d B at its highest",
		perEpisode, parentBytesPerEpisode, before.HeapAlloc, peak)
	if perEpisode > 9750 {
		t.Fatalf("%d B allocated per episode, contract is 9 750: a rollout is building its policy, log or simulator state again, or the update its tape nodes or backward steps", perEpisode)
	}
	if bound := before.HeapAlloc + before.HeapAlloc/10; peak > bound {
		t.Fatalf("live heap reached %d B while a batch was consumed, bound %d: an episode is being recorded in memory the trainer does not keep", peak, bound)
	}
}

func ExampleStep() {
	// The three numbers a rollout records per decision, off the tape.
	agent := core.NewAgent(core.Config{Window: 1, Layers: 1, Hidden: 8, Seed: 1})
	pol := core.NewTrainingPolicy(agent, rand.New(rand.NewSource(1)))
	if _, err := tinyProblem().Simulate(pol, pol.Rng); err != nil {
		panic(err)
	}
	st := pol.Steps[0]
	fmt.Println(st.LogProb < 0, st.Entropy > 0, st.Forward.Binding == nil)
	// Output: true true true
}

// convergedEpisode records one episode of the committed Cholesky T=6
// checkpoint — the converged policy train_a2c_t6 continues training — on its
// training problem, and returns a trainer over that agent, the rollout policy
// holding the episode, and the episode's reward.
func convergedEpisode(tb testing.TB) (*Trainer, *core.Policy, float64) {
	tb.Helper()
	tr, pols, rewards := convergedEpisodes(tb, 1)
	return tr, pols[0], rewards[0]
}

// convergedEpisodes is convergedEpisode for one episode per seed, each on a
// rollout policy and in an episode log of its own.
func convergedEpisodes(tb testing.TB, seeds ...int64) (*Trainer, []*core.Policy, []float64) {
	tb.Helper()
	agent := core.NewAgent(core.Config{Window: 2, Layers: 2, Hidden: 32, Seed: 1})
	if _, err := agent.LoadCheckpoint("../../models/readys_cholesky_T6_2c2g_w2_l2_h32.json"); err != nil {
		tb.Fatal(err)
	}
	prob := core.NewProblem(taskgraph.Cholesky, 6, 2, 2, 0.1)
	var pols []*core.Policy
	var rewards []float64
	for _, seed := range seeds {
		pol := core.NewTrainingPolicy(agent, rand.New(rand.NewSource(seed)))
		res, err := prob.Simulate(pol, pol.Rng)
		if err != nil {
			tb.Fatal(err)
		}
		pols = append(pols, pol)
		rewards = append(rewards, core.Reward(prob.HEFTBaseline(), res.Makespan))
	}
	cfg := DefaultConfig()
	cfg.Episodes = 1
	return NewTrainer(agent, prob, cfg), pols, rewards
}

// stackedRows returns the rows each decision of pol's episode stacks.
func stackedRows(pol *core.Policy) []int {
	rows := make([]int, len(pol.Steps))
	for i := range rows {
		rows[i] = pol.Log.Rows(i)
	}
	return rows
}

// passesExist reports whether rows cut into p passes whose heights differ by
// at most the tallest decision's rows and of which none but a lone decision
// stacks more than maxRows: an exhaustive search, boundary by boundary, for
// each band [U-tallest, U] of heights the passes could lie in.
func passesExist(rows []int, p, maxRows int) bool {
	d, tallest := len(rows), slices.Max(rows)
	ends := make([]int, d+1)
	for i, r := range rows {
		ends[i+1] = ends[i] + r
	}
	share := (ends[d] + p - 1) / p
	for U := max(tallest, share); U <= share+tallest; U++ {
		L := max(1, U-tallest)
		// reach[i]: decisions [0, i) cut into the passes so far.
		reach := make([]bool, d+1)
		reach[0] = true
		for range p {
			next := make([]bool, d+1)
			for lo := range d {
				for hi := lo + 1; reach[lo] && hi <= d && ends[hi]-ends[lo] <= U; hi++ {
					if h := ends[hi] - ends[lo]; h >= L && (hi-lo == 1 || h <= maxRows) {
						next[hi] = true
					}
				}
			}
			reach = next
		}
		if reach[d] {
			return true
		}
	}
	return false
}

// TestPassSplitContract makes the cut of an episode into tape passes a
// contract, on converged Cholesky T=6 episodes and on edge cases: the
// decisions stay in order; no pass of more than one decision stacks more
// than the cap; the heights of one episode's passes differ by at most its
// tallest decision's rows; and the pass count is ⌈rows/cap⌉ unless a larger
// one is forced — passesExist finds no passes meeting the other three at
// any count skipped. The greedy fill to ⌈rows/passes⌉ it replaced left a
// remainder pass of 64–97 rows on these episodes; cuts at the boundaries
// nearest k·rows/p differ by 42 rows on the seed-6 episode, whose tallest
// decision is 37.
func TestPassSplitContract(t *testing.T) {
	type episode struct {
		name   string
		rows   []int
		cap    int
		passes int // the count the split must take, 0: ⌈rows/cap⌉ or forced
	}
	repeat := func(n int, rows ...int) []int {
		var out []int
		for range n {
			out = append(out, rows...)
		}
		return out
	}
	cases := []episode{
		{name: "a decision taller than the cap", rows: []int{100, 100, 700, 100, 100}, cap: 512, passes: 3},
		{name: "a tall decision forces a pass more", rows: []int{10, 600, 10}, cap: 512, passes: 3},
		{name: "every decision taller than the cap", rows: []int{600, 700}, cap: 512, passes: 2},
		{name: "total = 3·cap", rows: repeat(48, 8, 24), cap: 512, passes: 3},
		{name: "total = cap+1", rows: append([]int{1}, repeat(32, 16)...), cap: 512, passes: 2},
		{name: "one decision", rows: []int{40}, cap: 512, passes: 1},
	}
	seeds := []int64{1, 2, 3, 4, 5, 6}
	_, pols, _ := convergedEpisodes(t, seeds...)
	for i, pol := range pols {
		cases = append(cases, episode{name: fmt.Sprintf("converged T=6, seed %d", seeds[i]), rows: stackedRows(pol), cap: maxPassRows})
	}
	var atCeil, forced int
	for _, c := range cases {
		var ps passSplit
		ps.ends = append(ps.ends, 0)
		for i, r := range c.rows {
			ps.ends = append(ps.ends, ps.ends[i]+r)
		}
		cuts := ps.split(c.cap)
		d, total, tallest := len(c.rows), ps.ends[len(c.rows)], slices.Max(c.rows)
		p := len(cuts) - 1
		if cuts[0] != 0 || cuts[p] != d {
			t.Fatalf("%s: cuts %v do not run from 0 to %d", c.name, cuts, d)
		}
		heights := make([]int, p)
		for j := range p {
			lo, hi := cuts[j], cuts[j+1]
			if hi <= lo {
				t.Fatalf("%s: cuts %v are out of order", c.name, cuts)
			}
			heights[j] = ps.ends[hi] - ps.ends[lo]
			if hi-lo > 1 && heights[j] > c.cap {
				t.Fatalf("%s: pass %d of %d decisions stacks %d rows, cap %d", c.name, j, hi-lo, heights[j], c.cap)
			}
		}
		if spread := slices.Max(heights) - slices.Min(heights); spread > tallest {
			t.Fatalf("%s: pass heights %v differ by %d, the tallest decision stacks %d", c.name, heights, spread, tallest)
		}
		ceil := min(d, (total+c.cap-1)/c.cap)
		for q := ceil; q < p; q++ {
			if passesExist(c.rows, q, c.cap) {
				t.Fatalf("%s: %d passes %v, but %d would do (⌈%d/%d⌉ = %d)", c.name, p, heights, q, total, c.cap, ceil)
			}
		}
		if p < ceil || c.passes > 0 && p != c.passes {
			t.Fatalf("%s: %d passes %v, want %d", c.name, p, heights, max(ceil, c.passes))
		}
		if p == ceil {
			atCeil++
		} else {
			forced++
		}
		t.Logf("%s: %d rows, tallest %d, passes %v", c.name, total, tallest, heights)
	}
	if atCeil == 0 || forced == 0 {
		t.Fatalf("%d episodes at ⌈rows/cap⌉ passes, %d forced past it: both kinds must occur", atCeil, forced)
	}
}

// TestUpdateAllocFree: once warm, the update of a recorded episode — the
// batched forward, the loss, Backward into the parameters — allocates
// nothing. Each backward step used to be a heap closure, and each large
// product made a closure, a WaitGroup and a goroutine per block: 216
// allocations an update of this episode. The runtime itself allocates now and
// then — a collection finishing — so the least of three windows of five
// updates must read 0; an allocation in the update shows in every one.
func TestUpdateAllocFree(t *testing.T) {
	if raceDetector {
		t.Skip("the race runtime allocates beside the program")
	}
	tr, pol, reward := convergedEpisode(t)
	// Warm: the tape's free list, arena, steps and tables grow to what this
	// episode needs.
	tr.accumulate(pol.Log, pol.Steps, reward)
	tr.accumulate(pol.Log, pol.Steps, reward)
	var windows []uint64
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 5 {
			tr.accumulate(pol.Log, pol.Steps, reward)
		}
		runtime.ReadMemStats(&after)
		if windows = append(windows, after.Mallocs-before.Mallocs); after.Mallocs == before.Mallocs {
			break
		}
	}
	if least := slices.Min(windows); least != 0 {
		t.Fatalf("%v allocations in windows of 5 warm updates of %d decisions, want 0 in one", windows, len(pol.Steps))
	}
}

// TestUpdateTapeRetainsBounded makes the pass cap a retained-memory contract.
// The update's tape keeps the buffers of its passes from update to update,
// so what a warm trainer holds is set by the pass height, not by the episode:
// four converged T=6 episodes stack 3 336, 3 381, 3 072 and 3 152 rows, which
// the update takes in seven passes of 423–494 rows each. The tape updates on
// each in turn, twice; what it keeps then — the live heap before and after
// it is released, the buffer pool emptied by two collections each time —
// reads ≈ 1.085 MB, and the bound is 1.1 × that. A tape that keeps each
// activation to the end of the pass, its values read by the ReLU's backward,
// kept ≈ 1.47 MB: seven pass-high buffers where the dropped activations leave
// four. The greedy fill the equal-height passes replaced left the episodes
// remainder passes of 81, 118, 52 and 25 rows, whose buffers fall into size
// classes of their own: that tape kept ≈ 1.74 MB here. Passes of 2 048 rows
// kept ≈ 4.6 MB and of 1 024 ≈ 2.3 MB on one of these episodes.
func TestUpdateTapeRetainsBounded(t *testing.T) {
	tr, pols, rewards := convergedEpisodes(t, 1, 7, 11, 63)
	var totals []int
	for i, pol := range pols {
		rows := stackedRows(pol)
		if sum(rows) <= maxPassRows {
			t.Fatalf("episode %d stacks %d rows: the cap is not reached", i, sum(rows))
		}
		totals = append(totals, sum(rows))
	}
	for range 2 {
		for i, pol := range pols {
			tr.accumulate(pol.Log, pol.Steps, rewards[i])
		}
	}
	live := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := live()
	tr.bind.Release()
	kept := int64(before) - int64(live())
	runtime.KeepAlive(pols)
	const bound = 1_194_000
	t.Logf("the update's tape keeps %d B after passes of at most %d rows over episodes of %v rows, bound %d B", kept, maxPassRows, totals, bound)
	if kept > bound {
		t.Fatalf("the update's tape keeps %d B, bound %d B: its passes are taller than %d rows or of unequal height, it keeps buffers of passes gone by, or activations to the end of the pass", kept, bound, maxPassRows)
	}
}

// sum returns the sum of xs.
func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// TestRolloutLogsRetainBounded makes the rollout pipeline a retained-memory
// contract: W rollout workers record into W+1 episode logs, whatever the
// batch size. The trainer continues the converged Cholesky T=6 checkpoint
// with 2 workers for 32 episodes, at 8 and at 16 episodes a batch. The pool
// must hold 3 logs, and what the logs keep — the live heap before and after
// they are dropped, the buffer pool emptied by two collections each time —
// may grow by a quarter at most from batch 8 to batch 16, and a log may keep
// 185 000 B, about 1.25 × what one keeps. The three keep ≈ 0.44 MB at either;
// while a log stored ready/running/remaining for every row of every decision
// they kept ≈ 0.59 MB, and a log per episode of the batch kept ≈ 1.9 MB at 8
// and ≈ 3.8 MB at 16.
func TestRolloutLogsRetainBounded(t *testing.T) {
	live := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	kept := map[int]int64{}
	for _, batch := range []int{8, 16} {
		tr, _, _ := convergedEpisode(t)
		cfg := tr.Cfg
		cfg.Episodes, cfg.BatchEpisodes, cfg.RolloutWorkers = 32, batch, 2
		tr = NewTrainer(tr.Agent, tr.Problem, cfg)
		if _, err := tr.Run(nil); err != nil {
			t.Fatal(err)
		}
		rp := &tr.rollouts
		if len(rp.logs) != 3 {
			t.Fatalf("batch %d: the pool holds %d episode logs, want 3 for 2 workers", batch, len(rp.logs))
		}
		before := live()
		rp.logs, rp.results = nil, nil
		for _, w := range rp.workers {
			w.pol.Log, w.pol.Steps = nil, nil
		}
		kept[batch] = before - live()
		runtime.KeepAlive(tr)
		t.Logf("batch %d: 3 episode logs keep %d B", batch, kept[batch])
	}
	if kept[16] > kept[8]+kept[8]/4 {
		t.Fatalf("the episode logs keep %d B at batch 16, %d B at batch 8: what a trainer keeps grows with the batch", kept[16], kept[8])
	}
	const perLog = 185_000
	for batch, b := range kept {
		if b/3 > perLog {
			t.Fatalf("batch %d: an episode log keeps %d B, bound %d: a log stores what it could rebuild", batch, b/3, perLog)
		}
	}
}

// raceDetector is set under -race (race_test.go).
var raceDetector bool

// BenchmarkA2CUpdate times the update of one recorded Cholesky T=6 episode
// (163 decisions) of the committed converged
// checkpoint, the agent train_a2c_t6 trains: the batched tape pass against
// the per-decision oracle it replaced.
func BenchmarkA2CUpdate(b *testing.B) {
	tr, pol, reward := convergedEpisode(b)
	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.accumulate(pol.Log, pol.Steps, reward)
		}
	})
	b.Run("per-decision", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			accumulatePerDecision(tr.Agent, tr.Cfg, pol.Log, pol.Steps, reward)
		}
	})
}
