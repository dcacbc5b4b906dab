package core

import (
	"fmt"
	"math/rand"
	"testing"

	"readys/internal/platform"
	"readys/internal/sim"
	"readys/internal/stream"
	"readys/internal/taskgraph"
	"readys/internal/tensor"
)

// cloneState returns a copy of es that shares no memory with it.
func cloneState(es *EncodedState) *EncodedState {
	x, proc := *es.X, *es.Proc
	x.Data, proc.Data = append([]float64(nil), x.Data...), append([]float64(nil), proc.Data...)
	norm := tensor.Sparse{
		Rows: es.Norm.Rows, Cols: es.Norm.Cols,
		RowPtr: append([]int(nil), es.Norm.RowPtr...),
		Col:    append([]int(nil), es.Norm.Col...),
		Val:    append([]float64(nil), es.Norm.Val...),
	}
	return &EncodedState{
		Nodes: append([]int(nil), es.Nodes...), X: &x, Norm: &norm, Proc: &proc,
		ReadyRows:  append([]int(nil), es.ReadyRows...),
		ReadyTasks: append([]int(nil), es.ReadyTasks...),
		AllowIdle:  es.AllowIdle,
		graphEpoch: es.graphEpoch,
	}
}

// stateProbe keeps a deep copy of the state every decision of the recording
// policy it wraps was taken on: the incremental encoder's state as Decide left
// it (the encoder overwrites it on the next decision), or, with the encoder
// off, the EncodeFault rebuild Decide made. It also forbids ∅ at every third
// decision, so masked and unmasked decisions sit side by side in the log.
type stateProbe struct {
	pol    *Policy
	states []*EncodedState
	epochs map[int]bool // GraphEpochs decisions were taken at
}

func (sp *stateProbe) Reset(s *sim.State) {
	sp.pol.Reset(s)
	sp.states, sp.epochs = nil, map[int]bool{}
}

func (sp *stateProbe) Decide(s *sim.State, r int) int {
	p := sp.pol
	p.DisableIdle = len(sp.states)%3 == 0
	task := p.Decide(s, r)
	var es *EncodedState
	if p.inc != nil {
		es = cloneState(&p.inc.es)
	} else {
		es = EncodeFault(s, r, p.unionFeats(s.Graph), p.Agent.Cfg.Window, p.Agent.Cfg.Directed, p.Agent.Cfg.FaultFeatures)
		es.AllowIdle = es.AllowIdle && !p.DisableIdle
	}
	sp.states = append(sp.states, es)
	sp.epochs[s.GraphEpoch] = true
	return task
}

// TestEpisodeLogReproducesStates: for every decision of a recorded rollout,
// the state materialised from the episode log is bit-equal — nodes, X,
// adjacency, ready rows and tasks, resource context, AllowIdle — to a deep
// copy of the encoder's state taken at that decision. The sweep covers the
// three factorisations, a faulted problem, the fault-features agent (ten
// context columns), the directed operator, a policy without the incremental
// encoder, and a stream whose arrivals land mid-episode, where each GraphEpoch
// bump re-keys the stored task rows.
func TestEpisodeLogReproducesStates(t *testing.T) {
	base := Config{Window: 2, Layers: 2, Hidden: 16, Seed: 3}
	with := func(tweak func(*Config)) Config {
		c := base
		tweak(&c)
		return c
	}
	dag := func(kind taskgraph.Kind, faults bool) func(sim.Policy, *rand.Rand) error {
		prob := NewProblem(kind, 5, 2, 2, 0.1)
		if faults {
			prob.Faults = sim.SpecForRate(1.5, 0)
		}
		return func(pol sim.Policy, rng *rand.Rand) error {
			_, err := prob.Simulate(pol, rng)
			return err
		}
	}
	streamRun := func(pol sim.Policy, rng *rand.Rand) error {
		arr, err := stream.PoissonProcess{
			Rate: 6, Jobs: 6, Kinds: []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU}, Sizes: []int{2, 3},
		}.Generate(rng)
		if err != nil {
			return err
		}
		_, err = stream.Run(pol, stream.Config{Platform: platform.New(2, 2), Arrivals: arr, Sigma: 0.1, Rng: rng})
		return err
	}
	carriedOver := 0 // window rebuilds that kept their adjacency
	for _, c := range []struct {
		name   string
		agent  Config
		noInc  bool
		stream bool
		run    func(sim.Policy, *rand.Rand) error
	}{
		{name: "cholesky", agent: base, run: dag(taskgraph.Cholesky, false)},
		{name: "lu", agent: base, run: dag(taskgraph.LU, false)},
		{name: "qr", agent: base, run: dag(taskgraph.QR, false)},
		{name: "faulted", agent: base, run: dag(taskgraph.Cholesky, true)},
		{name: "fault features", agent: with(func(c *Config) { c.FaultFeatures = true }), run: dag(taskgraph.LU, true)},
		{name: "directed", agent: with(func(c *Config) { c.Directed = true }), run: dag(taskgraph.Cholesky, false)},
		{name: "no incremental encoder", agent: base, noInc: true, run: dag(taskgraph.Cholesky, true)},
		{name: "stream", agent: base, stream: true, run: streamRun},
		{name: "stream, no incremental encoder", agent: base, noInc: true, stream: true, run: streamRun},
	} {
		t.Run(c.name, func(t *testing.T) {
			pol := NewTrainingPolicy(NewAgent(c.agent), rand.New(rand.NewSource(23)))
			if c.noInc {
				pol.inc = nil
			}
			probe := &stateProbe{pol: pol}
			if err := c.run(probe, pol.Rng); err != nil {
				t.Fatal(err)
			}
			log := pol.Log
			if len(probe.states) == 0 || len(log.Steps()) != len(probe.states) {
				t.Fatalf("%d decisions probed, %d recorded", len(probe.states), len(log.Steps()))
			}
			var got EncodedState
			var masked, tasks int
			for i, want := range probe.states {
				assertStatesEqual(t, want, log.State(i, &got), fmt.Sprintf("decision %d", i))
				if log.Rows(i) != want.X.Rows {
					t.Fatalf("decision %d: Rows %d, state has %d", i, log.Rows(i), want.X.Rows)
				}
				if idle := want.AllowIdle && log.Steps()[i].Action == len(want.ReadyRows); log.Steps()[i].Idle() != idle {
					t.Fatalf("decision %d: Idle() %v, want %v", i, !idle, idle)
				}
				if !want.AllowIdle {
					masked++
				}
				tasks = max(tasks, want.Nodes[len(want.Nodes)-1]+1)
			}
			if masked == 0 || masked == len(probe.states) {
				t.Fatalf("%d of %d decisions mask ∅: both kinds must occur", masked, len(probe.states))
			}

			// The log is compact: one window per change of the window's node
			// set or graph epoch, one stored row per task and graph epoch.
			changes := 0
			for i, st := range probe.states {
				if i == 0 || st.graphEpoch != probe.states[i-1].graphEpoch || !intsEqual(st.Nodes, probe.states[i-1].Nodes) {
					changes++
				}
			}
			if len(log.windows) != changes || changes >= len(probe.states) {
				t.Fatalf("%d windows stored for %d decisions whose window changed %d times", len(log.windows), len(probe.states), changes)
			}
			// The incremental encoder counts its own adjacency builds: one per
			// stored window; a window rebuild that kept the node set carried
			// the adjacency over.
			if inc := pol.inc; inc != nil {
				if inc.adjBuilds != len(log.windows) {
					t.Fatalf("the encoder built its adjacency %d times, %d windows stored", inc.adjBuilds, len(log.windows))
				}
				carriedOver += pol.Stats.Rebuilds - inc.adjBuilds
			}
			if c.stream {
				if len(probe.epochs) < 3 {
					t.Fatalf("decisions at %d graph epochs: the arrivals did not land mid-episode", len(probe.epochs))
				}
				if len(log.static) <= tasks {
					t.Fatalf("%d stored rows for %d tasks: no arrival re-keyed a row", len(log.static), tasks)
				}
			} else if len(log.static) > tasks {
				t.Fatalf("%d stored rows for the %d tasks of one graph epoch", len(log.static), tasks)
			}
		})
	}
	// A fault that leaves the node set alone recomputes the window but keeps
	// its adjacency.
	if carriedOver == 0 {
		t.Fatal("no window rebuild of the sweep carried its adjacency over")
	}
}
