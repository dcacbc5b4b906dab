package stream

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"readys/internal/core"
	"readys/internal/obs"
	"readys/internal/platform"
	"readys/internal/sched"
	"readys/internal/sim"
)

// resultBytes serializes everything the scheduler computed — job table, sim
// trace, aggregate stats — with the recorder pointer nulled out, so two runs
// can be compared byte for byte.
func resultBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	res.Flight = nil
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFlightRecorderBitInert is the observability contract: attaching a
// flight recorder must not consume randomness or alter scheduling, so the
// recorded and unrecorded runs produce byte-identical results.
func TestFlightRecorderBitInert(t *testing.T) {
	arr := testArrivals(t, 3, 8, 4.0)
	horizon := arr[len(arr)-1].At + 4000
	faults := sim.GeneratePlan(7, 4, sim.SpecForRate(2, horizon))

	run := func(rec *obs.FlightRecorder) *Result {
		res, err := Run(sched.MCTPolicy{}, Config{
			Platform: platform.New(2, 2),
			Arrivals: arr,
			Sigma:    0.1,
			Faults:   faults,
			Rng:      rand.New(rand.NewSource(42)),
			Recorder: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	plain := run(nil)
	rec := obs.NewFlightRecorder(0)
	recorded := run(rec)
	if recorded.Flight != rec {
		t.Fatal("result did not carry the recorder through")
	}
	if !bytes.Equal(resultBytes(t, plain), resultBytes(t, recorded)) {
		t.Fatal("flight recorder changed the schedule: results are not byte-identical")
	}
	if rec.Len() == 0 {
		t.Fatal("recorder attached but empty")
	}
}

// TestFlightRecorderContents cross-checks the recorded window against the
// run's own aggregates: one arrival per job, kills matching Result.Kills,
// fault and resource-transition events from the injected plan, and ready
// depth samples bounded by the union queue.
func TestFlightRecorderContents(t *testing.T) {
	arr := testArrivals(t, 5, 8, 4.0)
	horizon := arr[len(arr)-1].At + 4000
	faults := sim.GeneratePlan(11, 4, sim.SpecForRate(2, horizon))
	rec := obs.NewFlightRecorder(0)
	res, err := Run(sched.MCTPolicy{}, Config{
		Platform: platform.New(2, 2),
		Arrivals: arr,
		Sigma:    0.1,
		Faults:   faults,
		Rng:      rand.New(rand.NewSource(9)),
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}

	s := obs.SummarizeFlight(rec.Events())
	if s.ByKind[obs.FlightArrival] != len(arr) {
		t.Errorf("recorded %d arrivals, want %d", s.ByKind[obs.FlightArrival], len(arr))
	}
	if s.ByKind[obs.FlightKill] != res.Kills {
		t.Errorf("recorded %d kills, Result.Kills = %d", s.ByKind[obs.FlightKill], res.Kills)
	}
	if res.Kills > 0 && s.ByKind[obs.FlightFault] == 0 {
		t.Error("kills happened but no fault events recorded")
	}
	if s.ByKind[obs.FlightDecision] == 0 {
		t.Error("no decision events recorded")
	}
	decisions := obs.FilterFlight(rec.Events(), obs.FlightDecision, 0, 0)
	for _, d := range decisions {
		if d.Res < 0 || d.Res >= 4 {
			t.Fatalf("decision on impossible resource: %+v", d)
		}
		if d.Job == "" || d.Task == "" {
			t.Fatalf("decision missing job/task identity: %+v", d)
		}
	}

	// The JSONL export round-trips through the readys-obs-check reader.
	var b bytes.Buffer
	if err := rec.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadFlightEvents(&b)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != rec.Len() {
		t.Fatalf("JSONL round trip: %d != %d", len(back), rec.Len())
	}
}

// TestStreamMetricsGoldenExposition pins the Prometheus text rendering of the
// stream's metric family end to end: exact names, HELP/TYPE lines, histogram
// bucket layout, and the deterministic values of a seeded run.
func TestStreamMetricsGoldenExposition(t *testing.T) {
	arr := testArrivals(t, 1, 6, 3.0)
	reg := obs.NewRegistry()
	res, err := Run(sched.MCTPolicy{}, Config{
		Platform: platform.New(2, 2),
		Arrivals: arr,
		Sigma:    0.1,
		Rng:      rand.New(rand.NewSource(42)),
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	var b bytes.Buffer
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	// Structural golden: every family with HELP and TYPE, counters matching
	// the run's own aggregates, histogram count matching the job count.
	for _, want := range []string{
		"# HELP readys_stream_jobs_arrived_total jobs injected into the cluster\n",
		"# TYPE readys_stream_jobs_arrived_total counter\n",
		"readys_stream_jobs_arrived_total 6\n",
		"readys_stream_jobs_completed_total 6\n",
		"# TYPE readys_stream_job_response_ms histogram\n",
		`readys_stream_job_response_ms_bucket{le="+Inf"} 6`,
		"readys_stream_job_response_ms_count 6\n",
		"# TYPE readys_stream_tasks_completed_total counter\n",
		"readys_stream_kills_total 0\n",
		"# TYPE readys_stream_utilization gauge\n",
		"# TYPE readys_stream_mean_ready_depth gauge\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, got)
		}
	}
	tasks := 0
	for _, j := range res.Jobs {
		tasks += j.Tasks
	}
	if want := "readys_stream_tasks_completed_total " + strconv.Itoa(tasks) + "\n"; !strings.Contains(got, want) {
		t.Errorf("exposition missing %q", want)
	}
}

// TestStreamDecideStats checks what readys-stream -metrics exports as the
// readys_decide_* counters after a READYS run: the policy counted every
// decision of the stream and every ∅ among them, ran the network at some and
// recomputed the window at some.
func TestStreamDecideStats(t *testing.T) {
	// Seed 4's untrained weights answer ∅ at about half the decisions here
	// (seed 1's at none).
	pol := core.NewPolicy(core.NewAgent(core.Config{Window: 2, Layers: 2, Hidden: 16, Seed: 4}))
	res, err := Run(pol, Config{
		Platform: platform.New(2, 2),
		Arrivals: testArrivals(t, 1, 6, 3.0),
		Sigma:    0.1,
		Rng:      rand.New(rand.NewSource(42)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := pol.Stats; d.Decisions != res.Decisions || d.Idle != res.IdleDecisions || d.Idle == 0 || d.Forwards == 0 || d.Forwards > d.Decisions ||
		d.WindowRows < d.Decisions || d.Rebuilds == 0 || d.Rebuilds > d.Decisions {
		t.Errorf("decide stats %+v over %d decisions", d, res.Decisions)
	}
}
