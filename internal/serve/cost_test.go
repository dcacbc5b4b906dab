package serve

import (
	"math/rand"
	"net/http"
	"runtime"
	"testing"
	"time"

	"readys/internal/core"
	"readys/internal/exp"
	"readys/internal/platform"
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
// allocate at most 600 kB (it was 1.1 MB while every request built its own
// policy and boxed its spans), and a rollout on a warm lease allocates no more
// than the one before it — nothing the lease carries grows per request.
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
	cold := request()
	request() // the memo slab reaches its size on the second rollout
	warm := request()
	t.Logf("bytes allocated by a request: cold %d, warm %d", cold, warm)
	// ≈ 320 kB, or ≈ 65 kB more per sync.Pool (encoding/json's, net/http's)
	// that a collection emptied since the last request.
	if warm > 600<<10 {
		t.Errorf("warm T=8 request allocated %d bytes, contract is 600 kB", warm)
	}

	// The lease's share of a request is the rollout on its resident policy.
	// It touches no pool, so on the now-warm clone it repeats to the byte (the
	// slack is for what the runtime allocates behind the test's back).
	prob := core.Problem{
		Graph:    taskgraph.NewByKind(taskgraph.LU, 8),
		Platform: platform.New(2, 2),
		Timing:   platform.TimingFor(taskgraph.LU),
		Sigma:    0.1,
	}
	rollout := func() uint64 {
		t.Helper()
		lease, hit, err := s.Registry().Acquire(taskgraph.LU, 8, 2, 2)
		if err != nil || !hit {
			t.Fatalf("acquire: hit=%v err=%v", hit, err)
		}
		defer lease.Release()
		return allocatedBy(func() {
			if _, err := prob.Simulate(lease.Policy(), rand.New(rand.NewSource(req.Seed))); err != nil {
				t.Fatal(err)
			}
		})
	}
	second, third := rollout(), rollout()
	t.Logf("bytes allocated by a rollout on the warm lease: %d, then %d", second, third)
	if third > second+1<<10 {
		t.Errorf("rollout on a warm lease allocated %d bytes, the one before it %d: the lease grows per request", third, second)
	}
}
