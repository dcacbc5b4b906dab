package sim

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"readys/internal/platform"
	"readys/internal/taskgraph"
)

// TestClusterReserveGrowsNothing: after Reserve of the whole arrival list, no
// AddJob grows the union graph, a per-task State slice or the job table, and
// an arrival costs
// its own job — its rows and names — whatever the history: the first and the
// last arrival of a shape allocate the same. Graph.Reserve refuses a frozen
// graph, as Append does.
func TestClusterReserveGrowsNothing(t *testing.T) {
	shapes := []*taskgraph.Graph{
		taskgraph.NewFrozenByKind(taskgraph.Cholesky, 3),
		taskgraph.NewFrozenByKind(taskgraph.LU, 2),
	}
	timings := []platform.Timing{platform.TimingFor(taskgraph.Cholesky), platform.TimingFor(taskgraph.LU)}
	const jobs = 10 // one-digit job IDs: every arrival's name prefix is as long
	total := 0
	for j := 0; j < jobs; j++ {
		total += shapes[j%len(shapes)].NumTasks()
	}
	// arrivals runs the jobs on a fresh cluster and returns the bytes each
	// arrival allocated.
	arrivals := func() []uint64 {
		c, err := NewCluster(platform.New(2, 2), Options{Rng: rand.New(rand.NewSource(1))})
		if err != nil {
			t.Fatal(err)
		}
		c.Reserve(total, jobs)
		s := &c.rn.s
		// The ready set and the timing tables are working sets, not history:
		// give them their room up front so that what is measured is the
		// arrival.
		s.Ready = make([]int, 0, total)
		s.Timings = append(make([]platform.Timing, 0, len(timings)), timings...)

		// The per-task slices, then the job table.
		caps := func() []int {
			g := s.Graph
			return []int{cap(g.Tasks), cap(g.Succ), cap(g.Pred), cap(s.Done), cap(s.Started), cap(s.StartTime),
				cap(s.EndTime), cap(s.Attempts), cap(s.AssignedTo), cap(s.JobIdx), cap(s.PredLeft), cap(s.Jobs)}
		}
		reserved := caps()
		for i, n := range reserved[:len(reserved)-1] {
			if n < total {
				t.Fatalf("slice %d reserved for %d tasks, want %d", i, n, total)
			}
		}
		if n := reserved[len(reserved)-1]; n < jobs {
			t.Fatalf("job table reserved for %d jobs, want %d", n, jobs)
		}
		windows := make([]uint64, jobs)
		for j := range windows {
			k := j % len(shapes)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := c.AddJob(j, shapes[k], timings[k]); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if got := caps(); !slices.Equal(got, reserved) {
				t.Fatalf("job %d grew a reserved slice: caps %v, reserved %v", j, got, reserved)
			}
			windows[j] = after.TotalAlloc - before.TotalAlloc
		}
		if s.Graph.NumTasks() != total {
			t.Fatalf("%d tasks after every arrival, want %d", s.Graph.NumTasks(), total)
		}
		return windows
	}
	// Each window is the least of three fresh clusters', so a stray runtime
	// allocation landing in one window of one run does not count.
	least := arrivals()
	for range 2 {
		for j, bytes := range arrivals() {
			least[j] = min(least[j], bytes)
		}
	}
	var first, last [2]uint64
	for j, bytes := range least {
		k := j % len(shapes)
		if j < len(shapes) {
			first[k] = bytes
		}
		last[k] = bytes
	}
	for k := range shapes {
		if first[k] != last[k] {
			t.Errorf("shape %d: the first arrival allocated %d B, the last %d B", k, first[k], last[k])
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Reserve on a frozen graph did not panic")
		}
	}()
	shapes[0].Reserve(1)
}
