package serve

import (
	"context"
	"net/http"
	"runtime"
	"testing"
	"time"

	"readys/internal/exp"
	"readys/internal/obs"
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
// same on the sixth to eighth requests as on the third to fifth: nothing the
// model or the lease keeps grows per request. The same holds for the problem
// sent as an explicit DAG, whose share is at most 1 kB over the generated
// one's: a warm DAG finds its template and builds no graph (the build alone
// is ≈ 39 kB, TestExplicitDAGBuildAllocBounded).
func TestScheduleRequestAllocBounded(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, exp.DefaultAgentSpec(taskgraph.LU, 8, 2, 2))
	s := New(Config{ModelsDir: dir, Workers: 1, Queue: 4, RequestTimeout: 30 * time.Second})
	h := s.Handler()
	req := ScheduleRequest{Kind: "lu", T: 8, CPUs: 2, GPUs: 2, Sigma: 0.1, Seed: 5}
	dag := explicitRequest(taskgraph.LU, 8)
	dag.Sigma, dag.Seed = req.Sigma, req.Seed

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
	share := func(req *ScheduleRequest) uint64 {
		t.Helper()
		return allocatedBy(func() {
			if _, status, err := s.schedule(context.Background(), req, 0, obs.Link{}); err != nil {
				t.Fatalf("status %d: %v", status, err)
			}
		})
	}
	// The runtime's allocations only ever add to a window (a 5.5 kB one lands
	// in about one window in 25), so each reading is the least of three.
	least := func(req *ScheduleRequest) uint64 { return min(share(req), share(req), share(req)) }
	cold := request()
	request() // the memo slab reaches its size on the second rollout
	third, fourth := least(&req), least(&req)
	warm := request()
	share(&dag) // the DAG's template is built here
	dagThird, dagFourth := least(&dag), least(&dag)
	t.Logf("bytes allocated by a request: cold %d, warm %d; between decoding and encoding: %d, then %d; for the explicit DAG %d, then %d",
		cold, warm, third, fourth, dagThird, dagFourth)
	// ≈ 90 kB, or ≈ 65 kB more per sync.Pool that a collection emptied since
	// the last request.
	if warm > 300<<10 {
		t.Errorf("warm T=8 request allocated %d bytes, contract is 300 kB", warm)
	}
	for _, c := range [][2]uint64{{third, fourth}, {dagThird, dagFourth}} {
		if diff := int64(c[1]) - int64(c[0]); diff > 1<<10 || diff < -1<<10 {
			t.Errorf("the handler's share of a warm request allocated %d bytes, then %d: something resident grows or is rebuilt per request", c[0], c[1])
		}
	}
	if over := int64(dagFourth) - int64(fourth); over > 1<<10 {
		t.Errorf("the handler's share of a warm explicit-DAG request allocated %d bytes, %d more than the generated one's: it builds its graph again", dagFourth, over)
	}
}

// TestSwitchingModelsAllocatesNothing: a one-worker replica's one decision
// context serves LU and Cholesky T=8 in turn, so every request rebinds it to
// the other model's agent and rebuilds its graph statics — the descendant
// features included, ordered in memory the accumulator keeps. The handler's
// share of an LU request that follows a Cholesky one allocates within 1 kB of
// one that follows an LU one. Ordering in fresh arrays per rebuild
// (ReverseTopoFrom given no buffer) costs 3.4 kB more here.
func TestSwitchingModelsAllocatesNothing(t *testing.T) {
	dir := t.TempDir()
	for _, k := range []taskgraph.Kind{taskgraph.LU, taskgraph.Cholesky} {
		writeTestModel(t, dir, exp.DefaultAgentSpec(k, 8, 2, 2))
	}
	s := New(Config{ModelsDir: dir, Workers: 1, Queue: 4, RequestTimeout: 30 * time.Second})
	lu := ScheduleRequest{Kind: "lu", T: 8, CPUs: 2, GPUs: 2, Sigma: 0.1, Seed: 5}
	chol := ScheduleRequest{Kind: "cholesky", T: 8, CPUs: 2, GPUs: 2, Sigma: 0.1, Seed: 5}
	share := func(req ScheduleRequest) uint64 {
		t.Helper()
		return allocatedBy(func() {
			if _, status, err := s.schedule(context.Background(), &req, 0, obs.Link{}); err != nil {
				t.Fatalf("status %d: %v", status, err)
			}
		})
	}
	for range 3 { // every buffer reaches the larger model's size
		share(lu)
		share(chol)
	}
	// Least of three readings each, as in TestScheduleRequestAllocBounded.
	repeated, switched := ^uint64(0), ^uint64(0)
	for range 3 {
		share(lu)
		repeated = min(repeated, share(lu))
		share(chol)
		switched = min(switched, share(lu))
	}
	t.Logf("the handler's share of an LU request: %d bytes after LU, %d after Cholesky", repeated, switched)
	if diff := int64(switched) - int64(repeated); diff > 1<<10 || diff < -1<<10 {
		t.Errorf("an LU request allocated %d bytes after an LU one and %d after a Cholesky one: switching models rebuilds something per request", repeated, switched)
	}
}

// explicitRequest is the explicit-DAG form of the generated (kind, T) problem,
// as a client sends it: every task named, every edge in Succ order.
func explicitRequest(kind taskgraph.Kind, T int) ScheduleRequest {
	return ScheduleRequest{Kind: kind.String(), TrainT: T, CPUs: 2, GPUs: 2, DAG: explicitDAG(kind, T)}
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
