package sim

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"readys/internal/obs"
	"readys/internal/platform"
	"readys/internal/taskgraph"
)

// failAfter is fifoPolicy until its n-th decision, which names a task that is
// not ready: a run that ends in an error mid-way.
type failAfter struct{ n, seen int }

func (p *failAfter) Reset(*State) { p.seen = 0 }
func (p *failAfter) Decide(s *State, _ int) int {
	if p.seen++; p.seen > p.n {
		return s.Graph.NumTasks() - 1 // the sink is not ready this early
	}
	return s.Ready[0]
}

// TestRunnerReuseBitIdentical drives ONE Runner through runs chosen so that
// anything a run left behind would change the next: long → short → long
// graphs, 2c2g → 4c0g → 2c2g platforms, fault plans on and off (a death, a
// slowdown, and an outage that outlasts its run, followed by a short outage of
// the same resource and by fault-free runs), and a run that fails mid-way.
// Every run must equal sim.Simulate on a new Runner bit for bit — trace,
// makespan, kills, decision counts, the exported Chrome trace, and the State
// the run leaves behind, engine-internal fault bookkeeping included.
func TestRunnerReuseBitIdentical(t *testing.T) {
	mixed, cpus := platform.New(2, 2), platform.New(4, 0)
	tim := platform.TimingFor(taskgraph.Cholesky)
	// Every resource drops out for 1 ms at 1 ms, before the first task can
	// end, so the harsh plan kills an attempt wherever the run put it.
	harsh := &FaultPlan{Events: []FaultEvent{
		{Kind: FaultOutage, Resource: 0, At: 1, Duration: 1},
		{Kind: FaultOutage, Resource: 1, At: 1, Duration: 1},
		{Kind: FaultOutage, Resource: 2, At: 1, Duration: 1},
		{Kind: FaultOutage, Resource: 3, At: 1, Duration: 1},
		{Kind: FaultDegrade, Resource: 0, At: 5, Factor: 3},
		{Kind: FaultDeath, Resource: 1, At: 20},
		{Kind: FaultOutage, Resource: 2, At: 10, Duration: 1e6},
	}}
	brief := &FaultPlan{Events: []FaultEvent{
		{Kind: FaultOutage, Resource: 2, At: 15, Duration: 30},
		{Kind: FaultOutage, Resource: 1, At: 40, Duration: 10},
	}}
	runs := []struct {
		name    string
		tiles   int
		plat    platform.Platform
		plan    *FaultPlan
		pol     func() Policy
		wantErr bool
	}{
		{"long, harsh faults", 6, mixed, harsh, func() Policy { return fifoPolicy{} }, false},
		{"short, other platform", 2, cpus, nil, func() Policy { return fifoPolicy{} }, false},
		{"long, no faults", 6, mixed, nil, func() Policy { return fifoPolicy{} }, false},
		{"long, brief outages", 6, mixed, brief, func() Policy { return fifoPolicy{} }, false},
		// The failure comes before the plan's long outage ends, so part of
		// the plan is still pending when the run is abandoned.
		{"fails mid-way under faults", 5, mixed, harsh, func() Policy { return &failAfter{n: 3} }, true},
		{"long after the failure", 6, mixed, nil, func() Policy { return fifoPolicy{} }, false},
		{"short after the failure", 3, cpus, brief, func() Policy { return fifoPolicy{} }, false},
	}

	var rn Runner
	for i, c := range runs {
		g := taskgraph.NewCholesky(c.tiles)
		simulate := func(on *Runner) (Result, error, []byte) {
			tr := obs.NewTracer(0)
			res, err := on.Simulate(g, c.plat, tim, c.pol(), Options{
				Sigma: 0.2, Rng: rand.New(rand.NewSource(int64(100 + i))), Faults: c.plan, Tracer: tr,
			})
			var chrome bytes.Buffer
			if werr := tr.WriteChromeTrace(&chrome); werr != nil {
				t.Fatal(werr)
			}
			return res, err, chrome.Bytes()
		}
		fresh := new(Runner)
		want, wantErr, wantChrome := simulate(fresh)
		got, gotErr, gotChrome := simulate(&rn)

		if (wantErr != nil) != c.wantErr {
			t.Fatalf("%s: a new runner returned error %v, the case expects wantErr=%v", c.name, wantErr, c.wantErr)
		}
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s: reused runner returned error %v, a new one %v", c.name, gotErr, wantErr)
		}
		if got.Makespan != want.Makespan || got.Decisions != want.Decisions || got.IdleDecisions != want.IdleDecisions {
			t.Fatalf("%s: reused runner gave makespan %v in %d decisions (%d idle), a new one %v in %d (%d idle)",
				c.name, got.Makespan, got.Decisions, got.IdleDecisions, want.Makespan, want.Decisions, want.IdleDecisions)
		}
		if !reflect.DeepEqual(got.Trace, want.Trace) {
			t.Fatalf("%s: reused runner's trace differs from a new one's", c.name)
		}
		if !reflect.DeepEqual(got.Kills, want.Kills) {
			t.Fatalf("%s: reused runner recorded kills %+v, a new one %+v", c.name, got.Kills, want.Kills)
		}
		if !bytes.Equal(gotChrome, wantChrome) {
			t.Fatalf("%s: reused runner's Chrome trace differs from a new one's", c.name)
		}
		// What policies can read of the State, and the engine's own fault
		// bookkeeping, as the run left them.
		a, b := &rn.s, &fresh.s
		for _, f := range []struct {
			name      string
			got, want any
		}{
			{"tasks", liveRows(a), liveRows(b)}, {"log", a.log, b.log}, {"retiredBusy", a.retiredBusy, b.retiredBusy},
			{"Ready", a.Ready, b.Ready}, {"Running", a.Running, b.Running},
			{"BusyUntil", a.BusyUntil, b.BusyUntil}, {"RunningTask", a.RunningTask, b.RunningTask},
			{"Up", a.Up, b.Up}, {"Dead", a.Dead, b.Dead}, {"Speed", a.Speed, b.Speed},
			{"downUntil", a.downUntil, b.downUntil}, {"deathAt", a.deathAt, b.deathAt},
			{"FaultEpoch", a.FaultEpoch, b.FaultEpoch}, {"NumDone", a.NumDone, b.NumDone},
		} {
			if !reflect.DeepEqual(f.got, f.want) {
				t.Fatalf("%s: State.%s is %v after the run on the reused runner, %v on a new one", c.name, f.name, f.got, f.want)
			}
		}
		if c.wantErr {
			continue
		}
		if c.plan == harsh && len(got.Kills) == 0 {
			t.Fatalf("%s: the harsh plan killed nothing, so the run leaves no fault state to leak", c.name)
		}
		if err := rn.Validate(g, c.plat.Size(), got); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := ValidateResultStrict(g, got, CheckOptions{Platform: c.plat, Timing: tim, Sigma: 0.2, Faults: c.plan}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}

// liveRows copies the state rows s holds, from its first live task on.
func liveRows(s *State) []taskRow {
	rows := make([]taskRow, 0, s.tasks.Len()-s.tasks.Live())
	for t := s.tasks.Live(); t < s.tasks.Len(); t++ {
		rows = append(rows, *s.tasks.At(t))
	}
	return rows
}
