package serve

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"testing"
	"time"

	"readys/internal/core"
	"readys/internal/exp"
	"readys/internal/platform"
	"readys/internal/taskgraph"
)

// leaseSpec is the architecture of the lease tests' checkpoints: the shipped
// window and depth, so windows really are rebuilt and carried between
// decisions, at a width that keeps a T=8 rollout cheap under -race.
func leaseSpec(kind taskgraph.Kind, T int) exp.AgentSpec {
	spec := exp.DefaultAgentSpec(kind, T, 2, 2)
	spec.Hidden = 8
	return spec
}

// explicitDAG returns the request body that submits the kind's T-tile graph
// task by task instead of naming its generator.
func explicitDAG(kind taskgraph.Kind, T int) *DAGSpec {
	g := taskgraph.NewByKind(kind, T)
	spec := &DAGSpec{}
	for _, task := range g.Tasks {
		spec.Tasks = append(spec.Tasks, DAGTask{Kernel: int(task.Kernel), Name: task.Name})
	}
	for from, succ := range g.Succ {
		for _, to := range succ {
			spec.Edges = append(spec.Edges, [2]int{from, to})
		}
	}
	return spec
}

// freshAnswer schedules req the way runSchedule did before leases carried
// their policy: the checkpoint loaded from disk and core.NewPolicy built for
// this one problem.
func freshAnswer(t *testing.T, dir string, req ScheduleRequest) ScheduleResponse {
	t.Helper()
	kind, err := req.kind()
	if err != nil {
		t.Fatal(err)
	}
	graph, err := req.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	spec := leaseSpec(kind, req.ModelT())
	agent := core.NewAgent(spec.AgentConfig())
	if _, err := agent.LoadCheckpoint(spec.ModelPath(dir)); err != nil {
		t.Fatal(err)
	}
	prob := core.Problem{
		Graph:    graph,
		Platform: platform.New(req.CPUs, req.GPUs),
		Timing:   platform.TimingFor(kind),
		Sigma:    req.Sigma,
	}
	res, err := prob.Simulate(core.NewPolicy(agent), rand.New(rand.NewSource(req.Seed)))
	if err != nil {
		t.Fatal(err)
	}
	want := ScheduleResponse{Makespan: res.Makespan, Decisions: res.Decisions, IdleDecisions: res.IdleDecisions}
	for _, p := range res.Trace {
		want.Placements = append(want.Placements, PlacementJSON{
			Task:     p.Task,
			Name:     graph.Tasks[p.Task].Name,
			Resource: p.Resource,
			Type:     prob.Platform.Resources[p.Resource].Type.String(),
			Start:    p.Start,
			End:      p.End,
		})
	}
	return want
}

// sameSchedule reports how got differs from want in what a policy decides:
// makespan, decision counts and every placement, bit for bit.
func sameSchedule(got, want ScheduleResponse) error {
	if got.Makespan != want.Makespan {
		return fmt.Errorf("makespan %v, want %v", got.Makespan, want.Makespan)
	}
	if got.Decisions != want.Decisions || got.IdleDecisions != want.IdleDecisions {
		return fmt.Errorf("decisions %d (%d idle), want %d (%d idle)",
			got.Decisions, got.IdleDecisions, want.Decisions, want.IdleDecisions)
	}
	if len(got.Placements) != len(want.Placements) {
		return fmt.Errorf("%d placements, want %d", len(got.Placements), len(want.Placements))
	}
	for i := range want.Placements {
		if got.Placements[i] != want.Placements[i] {
			return fmt.Errorf("placement %d: %+v, want %+v", i, got.Placements[i], want.Placements[i])
		}
	}
	return nil
}

// TestLeasedPolicyMatchesFreshPolicy holds what is resident with a lease — the
// policy, the simulator memory, the generator — and the model's problem
// templates to what they replaced. One worker means one clone, hence one
// policy and one runner, per model; each serves big, small and big graphs
// again, generated and explicit — and every answer must equal the one a policy
// built fresh, on a graph built fresh, gives. The last rounds are generated
// bodies only: the same template twice running, a second tile count on the
// same model, an explicit DAG between two uses of one template; then the
// models are evicted, which must drop their templates.
func TestLeasedPolicyMatchesFreshPolicy(t *testing.T) {
	dir := t.TempDir()
	kinds := []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR}
	for _, k := range kinds {
		writeTestModel(t, dir, leaseSpec(k, 8))
	}
	s := New(Config{ModelsDir: dir, Workers: 1, Queue: 4, RequestTimeout: time.Minute})

	var seq []ScheduleRequest
	seed := int64(0)
	generated := make(map[taskgraph.Kind]map[int]bool) // tile counts requested by name, per model
	for _, k := range kinds {
		generated[k] = make(map[int]bool)
	}
	round := func(explicitEvery int64, tiles ...int) {
		for _, T := range tiles {
			for _, k := range kinds {
				seed++
				req := ScheduleRequest{Kind: k.String(), T: T, TrainT: 8, CPUs: 2, GPUs: 2, Sigma: 0.1, Seed: seed}
				if explicitEvery > 0 && seed%explicitEvery == 0 {
					req.T, req.DAG = 0, explicitDAG(k, T)
				} else {
					generated[k][T] = true
				}
				seq = append(seq, req)
			}
		}
	}
	round(2, 8, 2, 8, 2, 8)
	round(0, 8, 8, 4, 8) // one template twice, another t, the first again
	round(1, 4)          // an explicit DAG on every model...
	round(0, 8, 4)       // ...between two uses of its templates

	for i, req := range seq {
		rec, got := postSchedule(t, s.Handler(), req)
		if rec.Code != http.StatusOK {
			t.Fatalf("step %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		if err := sameSchedule(got, freshAnswer(t, dir, req)); err != nil {
			t.Fatalf("step %d (%s T=%d dag=%v): leased policy diverged from a fresh one: %v",
				i, req.Kind, req.T, req.DAG != nil, err)
		}
	}
	for _, k := range kinds {
		m := s.Registry().byName[cacheKey(k, 8, 2, 2)].Value.(*model)
		if len(m.free) != 1 {
			t.Errorf("%d idle clones of %s after a one-at-a-time sequence, want the one that served it all", len(m.free), m.name)
		}
		// A template per tile count ever requested by name, whatever came
		// between, none for explicit DAGs; each frozen.
		for T, tpl := range m.templates {
			if !generated[k][T] || !tpl.prob.Graph.Frozen() || tpl.prob.Graph.Tiles != T {
				t.Errorf("%s holds a template under t=%d: frozen=%v, tiles=%d, requested by name=%v",
					m.name, T, tpl.prob.Graph.Frozen(), tpl.prob.Graph.Tiles, generated[k][T])
			}
		}
		if len(m.templates) != len(generated[k]) {
			t.Errorf("%s holds %d templates, %d tile counts were requested by name", m.name, len(m.templates), len(generated[k]))
		}

		// Eviction drops the templates with the model; the next request
		// builds its own and still answers like a fresh policy.
		old := m.templates[8]
		if !s.Registry().Invalidate(m.name + ".json") {
			t.Fatalf("Invalidate missed %s", m.name)
		}
		if m.templates != nil {
			t.Errorf("evicted %s still holds %d templates", m.name, len(m.templates))
		}
		req := ScheduleRequest{Kind: k.String(), T: 8, CPUs: 2, GPUs: 2, Sigma: 0.1, Seed: 77}
		rec, got := postSchedule(t, s.Handler(), req)
		if rec.Code != http.StatusOK {
			t.Fatalf("after eviction: status %d: %s", rec.Code, rec.Body.String())
		}
		if err := sameSchedule(got, freshAnswer(t, dir, req)); err != nil {
			t.Errorf("first request after eviction: %v", err)
		}
		reloaded := s.Registry().byName[cacheKey(k, 8, 2, 2)].Value.(*model)
		if tpl := reloaded.templates[8]; tpl == nil || tpl == old || len(reloaded.templates) != 1 {
			t.Errorf("reloaded %s holds %d templates (t=8 rebuilt: %v), want its own one", m.name, len(reloaded.templates), tpl != nil && tpl != old)
		}
	}
}

// TestLeasedPolicyFollowsPublishedWeights: a policy is bound to the clone it
// was built over, so when Publish or Invalidate evicts a model, no later lease
// may be served by a policy of the evicted generation — not an idle one, and
// not one that was out on lease at the time and released afterwards.
func TestLeasedPolicyFollowsPublishedWeights(t *testing.T) {
	dir := t.TempDir()
	spec := leaseSpec(taskgraph.Cholesky, 8)
	writeTestModel(t, dir, spec)
	s := New(Config{ModelsDir: dir, Workers: 1, Queue: 4, RequestTimeout: time.Minute})
	reg := s.Registry()
	req := ScheduleRequest{Kind: "cholesky", T: 8, CPUs: 2, GPUs: 2, Sigma: 0.1, Seed: 3}

	answer := func() ScheduleResponse {
		t.Helper()
		rec, got := postSchedule(t, s.Handler(), req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		return got
	}
	gen1 := freshAnswer(t, dir, req)
	for i := 0; i < 2; i++ { // cold, then on the now-idle clone
		if err := sameSchedule(answer(), gen1); err != nil {
			t.Fatalf("generation 1, request %d: %v", i, err)
		}
	}

	// Publish different weights while generation 1's clone sits idle.
	spec2 := spec
	spec2.Seed += 100
	staging := t.TempDir()
	if err := core.NewAgent(spec2.AgentConfig()).SaveCheckpoint(spec.ModelPath(staging), nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(spec.ModelPath(staging))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Publish(spec.Name()+".json", data); err != nil {
		t.Fatal(err)
	}
	gen2 := freshAnswer(t, dir, req)
	if sameSchedule(gen2, gen1) == nil {
		t.Fatal("the two generations schedule alike: the test cannot tell them apart")
	}
	if err := sameSchedule(answer(), gen2); err != nil {
		t.Fatalf("first request after Publish: %v", err)
	}

	// Invalidate while a lease is out: its release must not bring the old
	// clone, or its policy, back into circulation.
	held, _, err := reg.Acquire(spec.Kind, spec.T, spec.NumCPU, spec.NumGPU)
	if err != nil {
		t.Fatal(err)
	}
	stale := held.Policy()
	if !reg.Invalidate(spec.Name() + ".json") {
		t.Fatal("Invalidate missed the resident model")
	}
	held.Release()
	next, hit, err := reg.Acquire(spec.Kind, spec.T, spec.NumCPU, spec.NumGPU)
	if err != nil {
		t.Fatal(err)
	}
	defer next.Release()
	if hit || next.Policy() == stale {
		t.Fatalf("lease after Invalidate: hit=%v, stale policy=%v", hit, next.Policy() == stale)
	}
	if next.Policy().Agent != next.Agent() {
		t.Fatal("leased policy is not bound to the leased agent")
	}
}
