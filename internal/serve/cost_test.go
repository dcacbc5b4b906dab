package serve

import (
	"context"
	"net/http"
	"runtime"
	"testing"
	"time"

	"readys/internal/exp"
	"readys/internal/taskgraph"
)

// allocatedBy returns the bytes fn allocates (TotalAlloc delta).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestScheduleRequestAllocBounded is the serving path's cost contract, in the
// style of TestStreamCostFlat: a warm T=8 request through Handler() may
// allocate at most 300 kB (it was 1.1 MB while every request built its own
// policy and boxed its spans, and 320 kB while it built, validated and
// HEFT-scheduled its graph and ran on a new simulator state), and what the
// handler does between a decoded body and an encoded answer — the lease, the
// template, the pool hand-off, the two runs, the placements — allocates the
// same on the fourth request as on the third: nothing the model or the lease
// keeps grows per request.
func TestScheduleRequestAllocBounded(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, exp.DefaultAgentSpec(taskgraph.LU, 8, 2, 2))
	s := New(Config{ModelsDir: dir, Workers: 1, Queue: 4, RequestTimeout: 30 * time.Second})
	h := s.Handler()
	req := ScheduleRequest{Kind: "lu", T: 8, CPUs: 2, GPUs: 2, Sigma: 0.1, Seed: 5}

	request := func() uint64 {
		t.Helper()
		return allocatedBy(func() {
			if rec, _ := postSchedule(t, h, req); rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
		})
	}
	// schedule touches no sync.Pool (those are encoding/json's and
	// net/http's), so on the warm clone it repeats to the byte; the slack is
	// for what the runtime allocates behind the test's back.
	share := func() uint64 {
		t.Helper()
		return allocatedBy(func() {
			if _, status, err := s.schedule(context.Background(), &req); err != nil {
				t.Fatalf("status %d: %v", status, err)
			}
		})
	}
	cold := request()
	request() // the memo slab reaches its size on the second rollout
	third, fourth := share(), share()
	warm := request()
	t.Logf("bytes allocated by a request: cold %d, warm %d; between decoding and encoding: %d, then %d", cold, warm, third, fourth)
	// ≈ 90 kB, or ≈ 65 kB more per sync.Pool that a collection emptied since
	// the last request.
	if warm > 300<<10 {
		t.Errorf("warm T=8 request allocated %d bytes, contract is 300 kB", warm)
	}
	if diff := int64(fourth) - int64(third); diff > 1<<10 || diff < -1<<10 {
		t.Errorf("the handler's share of a warm request allocated %d bytes, then %d: something resident grows or is rebuilt per request", third, fourth)
	}
}

// explicitRequest is the explicit-DAG form of the generated (kind, T) problem,
// as a client sends it: every task named, every edge in Succ order.
func explicitRequest(kind taskgraph.Kind, T int) ScheduleRequest {
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
	return ScheduleRequest{Kind: kind.String(), TrainT: T, CPUs: 2, GPUs: 2, DAG: spec}
}

// TestExplicitDAGBuildAllocBounded is the explicit-DAG build's cost contract:
// LU T=8 (204 tasks) builds in at most 64 kB and 16 allocations — the graph,
// its rows cut from one array per direction, the kernels and names handed to
// taskgraph.NewFrozen and one TopoOrder. Built with AddTask, AddEdge and
// Validate it took 179 kB and 903 allocations: an edge-set map, Validate's
// duplicate map and a row grown by append per task.
func TestExplicitDAGBuildAllocBounded(t *testing.T) {
	req := explicitRequest(taskgraph.LU, 8)
	build := func() {
		if _, err := req.BuildGraph(); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 50
	allocs := testing.AllocsPerRun(runs, build)
	bytes := allocatedBy(func() {
		for range runs {
			build()
		}
	}) / runs
	t.Logf("LU T=8 explicit build: %d bytes, %.0f allocations", bytes, allocs)
	if bytes > 64<<10 || allocs > 16 {
		t.Errorf("LU T=8 explicit build allocated %d bytes in %.0f allocations, contract is 64 kB and 16", bytes, allocs)
	}
}

// TestRefusedRequestBuildsNoGraph: a generated body is judged by its closed-form
// task count and by whether its model exists before anything is built. A t=150
// Cholesky request (573 800 tasks: 1.9 s and 487 MB to build, as the handler
// once did before it looked for the model) answers 400, and a well-sized one
// for a checkpoint that is not there answers 404, each for less than building
// even the smaller graph allocates (≈ 107 kB for LU t=8).
func TestRefusedRequestBuildsNoGraph(t *testing.T) {
	s := New(Config{ModelsDir: t.TempDir(), Workers: 1, Queue: 4, RequestTimeout: 30 * time.Second})
	h := s.Handler()
	for _, c := range []struct {
		name string
		req  ScheduleRequest
		want int
	}{
		{"t beyond MaxDAGTasks", ScheduleRequest{Kind: "cholesky", T: 150, CPUs: 2, GPUs: 2}, http.StatusBadRequest},
		{"t whose task count overflows", ScheduleRequest{Kind: "lu", T: 1 << 62, CPUs: 2, GPUs: 2}, http.StatusBadRequest},
		{"largest t served, no model", ScheduleRequest{Kind: "lu", T: 22, CPUs: 2, GPUs: 2}, http.StatusNotFound},
		{"no model", ScheduleRequest{Kind: "lu", T: 8, CPUs: 2, GPUs: 2}, http.StatusNotFound},
	} {
		postSchedule(t, h, c.req) // the first request of a process pays for lazily built tables
		var code int
		start := time.Now()
		allocated := allocatedBy(func() {
			rec, _ := postSchedule(t, h, c.req)
			code = rec.Code
		})
		t.Logf("%s: status %d, %d bytes, %s", c.name, code, allocated, time.Since(start))
		if code != c.want {
			t.Errorf("%s: status %d, want %d", c.name, code, c.want)
		}
		if allocated > 64<<10 {
			t.Errorf("%s: the refusal allocated %d bytes, more than 64 kB: something was built first", c.name, allocated)
		}
	}
}
