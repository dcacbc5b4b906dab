package core

import (
	"fmt"
	"math/rand"
	"testing"

	"readys/internal/platform"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// idleProbe runs a non-recording policy and hands each decision to check with
// the ∅ legality the encoder set (!MustAct) and what the policy's mask left of
// it in the encoded state the forward read.
type idleProbe struct {
	inner *Policy
	check func(s *sim.State, r int, encoded, masked bool)
}

func (p *idleProbe) Reset(s *sim.State) { p.inner.Reset(s) }

func (p *idleProbe) Decide(s *sim.State, r int) int {
	encoded := !s.MustAct
	task := p.inner.Decide(s, r)
	p.check(s, r, encoded, p.inner.inc.es.AllowIdle)
	return task
}

// TestIdleMaskRule: a non-recording policy leaves ∅ legal only while some up
// resource has a type other than the asking one's. On a fault-free 2c2g run
// that holds at every decision, so the mask leaves AllowIdle as the encoder
// set it; on 4c0g and 0c4g it clears it at every decision, and the committed
// T=4 agents, which idle under a plain argmax, answer no ∅. On 2c2g with both
// GPUs out, a CPU's decision has ∅ cleared, and the mask lifts once a GPU is
// back.
func TestIdleMaskRule(t *testing.T) {
	load := func(cpus, gpus int) *Agent {
		agent := NewAgent(Config{Window: 2, Layers: 2, Hidden: 32, Seed: 1})
		path := fmt.Sprintf("../../models/readys_cholesky_T4_%dc%dg_w2_l2_h32.json", cpus, gpus)
		if _, err := agent.LoadCheckpoint(path); err != nil {
			t.Fatal(err)
		}
		return agent
	}
	g := taskgraph.NewByKind(taskgraph.Cholesky, 4)
	tt := platform.TimingFor(taskgraph.Cholesky)
	run := func(agent *Agent, plat platform.Platform, faults *sim.FaultPlan, check func(s *sim.State, r int, encoded, masked bool)) *Policy {
		t.Helper()
		pol := NewPolicy(agent)
		if _, err := sim.Simulate(g, plat, tt, &idleProbe{inner: pol, check: check}, sim.Options{Sigma: 0.1, Rng: rand.New(rand.NewSource(3)), Faults: faults}); err != nil {
			t.Fatal(err)
		}
		return pol
	}

	t.Run("2c2g", func(t *testing.T) {
		allowed := 0
		run(load(2, 2), platform.New(2, 2), nil, func(s *sim.State, r int, encoded, masked bool) {
			if masked != encoded {
				t.Fatalf("t=%g resource %d: AllowIdle %v, the encoder set %v", s.Now, r, masked, encoded)
			}
			if masked {
				allowed++
			}
		})
		if allowed == 0 {
			t.Fatal("no decision had ∅ legal; the run does not tell the mask from one that always clears")
		}
	})

	for _, p := range [][2]int{{4, 0}, {0, 4}} {
		t.Run(fmt.Sprintf("%dc%dg", p[0], p[1]), func(t *testing.T) {
			encodedAllowed := 0
			pol := run(load(p[0], p[1]), platform.New(p[0], p[1]), nil, func(s *sim.State, r int, encoded, masked bool) {
				if masked {
					t.Fatalf("t=%g resource %d: ∅ legal on a one-type platform", s.Now, r)
				}
				if encoded {
					encodedAllowed++
				}
			})
			if encodedAllowed == 0 {
				t.Fatal("the encoder never allowed ∅; the run does not exercise the mask")
			}
			if pol.Stats.Idle != 0 {
				t.Fatalf("%d ∅ answers on a one-type platform", pol.Stats.Idle)
			}
		})
	}

	t.Run("2c2g GPUs out", func(t *testing.T) {
		const down, back = 10.0, 30.0
		plan := &sim.FaultPlan{Events: []sim.FaultEvent{
			{Kind: sim.FaultOutage, Resource: 2, At: down, Duration: back - down},
			{Kind: sim.FaultOutage, Resource: 3, At: down, Duration: back - down},
		}}
		plat := platform.New(2, 2)
		var cleared, lifted int
		run(load(2, 2), plat, plan, func(s *sim.State, r int, encoded, masked bool) {
			gpuUp := s.ResourceUp(2) || s.ResourceUp(3)
			if plat.Resources[r].Type != platform.CPU || gpuUp {
				if masked != encoded {
					t.Fatalf("t=%g resource %d: AllowIdle %v with a resource of the other type up, the encoder set %v", s.Now, r, masked, encoded)
				}
				if s.Now >= back && masked {
					lifted++
				}
				return
			}
			if masked {
				t.Fatalf("t=%g CPU %d: ∅ legal with both GPUs down", s.Now, r)
			}
			if encoded {
				cleared++
			}
		})
		if cleared == 0 || lifted == 0 {
			t.Fatalf("%d CPU decisions had ∅ cleared during the outage and %d had it legal after; the plan must give both", cleared, lifted)
		}
	})
}
