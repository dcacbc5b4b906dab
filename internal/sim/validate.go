package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"readys/internal/platform"
	"readys/internal/taskgraph"
)

// ValidateResult checks that a simulation result is a feasible schedule:
// every task placed exactly once on an existing resource, precedence
// constraints respected (a task starts no earlier than the completion of all
// its predecessors), and no two tasks overlapping on the same resource.
// It returns the first violation found, or nil.
func ValidateResult(g *taskgraph.Graph, numResources int, res Result) error {
	return new(Runner).Validate(g, numResources, res)
}

// Validate is ValidateResult in the runner's scratch memory. res may be the
// runner's own last Result; it is only read.
func (rn *Runner) Validate(g *taskgraph.Graph, numResources int, res Result) error {
	n := g.NumTasks()
	if len(res.Trace) != n {
		return fmt.Errorf("sim: trace has %d placements for %d tasks", len(res.Trace), n)
	}
	// A placement marks its slot with its own task ID, so slots start at -1.
	byTask := zeroed(rn.byTask, n)
	rn.byTask = byTask
	for i := range byTask {
		byTask[i].Task = -1
	}
	for _, p := range res.Trace {
		if p.Task < 0 || p.Task >= n {
			return fmt.Errorf("sim: placement for unknown task %d", p.Task)
		}
		if byTask[p.Task].Task == p.Task {
			return fmt.Errorf("sim: task %d placed twice", p.Task)
		}
		if p.Resource < 0 || p.Resource >= numResources {
			return fmt.Errorf("sim: task %d on unknown resource %d", p.Task, p.Resource)
		}
		if p.End < p.Start {
			return fmt.Errorf("sim: task %d ends (%.3f) before it starts (%.3f)", p.Task, p.End, p.Start)
		}
		byTask[p.Task] = p
	}
	// Precedence.
	for j := 0; j < n; j++ {
		for _, i := range g.Pred[j] {
			if byTask[j].Start < byTask[i].End-1e-9 {
				return fmt.Errorf("sim: task %d starts at %.3f before predecessor %d ends at %.3f",
					j, byTask[j].Start, i, byTask[i].End)
			}
		}
	}
	// Resource exclusivity: the placements bucketed by resource (a counting
	// sort into the second scratch), each bucket ordered by (start, end) — the
	// end breaks ties so that zero-duration tasks sharing a start instant with
	// a longer one are not misreported as overlapping.
	next := zeroed(rn.next, numResources) // where each resource's bucket starts, then ends
	rn.next = next
	for _, p := range byTask {
		if p.Resource+1 < numResources {
			next[p.Resource+1]++
		}
	}
	for r := 1; r < numResources; r++ {
		next[r] += next[r-1]
	}
	perRes := zeroed(rn.perRes, n)
	rn.perRes = perRes
	var maxEnd float64
	for _, p := range byTask {
		perRes[next[p.Resource]] = p
		next[p.Resource]++
		if p.End > maxEnd {
			maxEnd = p.End
		}
	}
	lo := 0
	for r, hi := range next {
		ps := perRes[lo:hi]
		lo = hi
		slices.SortFunc(ps, func(a, b Placement) int {
			if a.Start != b.Start {
				return cmp.Compare(a.Start, b.Start)
			}
			return cmp.Compare(a.End, b.End)
		})
		for i := 1; i < len(ps); i++ {
			if ps[i].Start < ps[i-1].End-1e-9 {
				return fmt.Errorf("sim: resource %d runs tasks %d and %d concurrently", r, ps[i-1].Task, ps[i].Task)
			}
		}
	}
	// Makespan consistency.
	if maxEnd-res.Makespan > 1e-9 || res.Makespan-maxEnd > 1e-9 {
		return fmt.Errorf("sim: makespan %.3f != max end time %.3f", res.Makespan, maxEnd)
	}
	return nil
}

// CheckOptions parameterises ValidateResultStrict with everything the engine
// saw, so the validator can recompute what the engine claims instead of
// trusting it.
type CheckOptions struct {
	Platform platform.Platform
	Timing   platform.Timing
	// Sigma is the duration noise level the run used. Zero makes the
	// duration check exact.
	Sigma float64
	// Comm is the communication model (nil = free), needed to recompute the
	// data stall embedded in each slice.
	Comm *platform.CommModel
	// Faults is the fault plan the run replayed (nil = none): slices are
	// checked against outage windows, death times, and degrade factors.
	Faults *FaultPlan
	// TimingOf, if non-nil, overrides Timing per task — required to check
	// union schedules of multi-family streams, where each job's tasks carry
	// the timing table of its own DAG family (State.TaskTiming).
	TimingOf func(task int) platform.Timing
}

// timingOf resolves the timing table governing one task.
func (o CheckOptions) timingOf(task int) platform.Timing {
	if o.TimingOf != nil {
		return o.TimingOf(task)
	}
	return o.Timing
}

// Relative and absolute tolerances of the strict duration checks. Durations
// are pure float arithmetic on the engine side, so violations at these
// magnitudes indicate a real engine bug, not rounding.
const (
	strictRelTol = 1e-6
	strictAbsTol = 1e-9
)

// sigmaEnvelope bounds realised noisy durations: the duration model draws
// max(0, N(E, sigma·E)), and a 10-sigma excursion is beyond anything a
// correct engine produces over this repo's test sizes.
func sigmaEnvelope(sigma float64) float64 { return 1 + float64(10*sigma) }

// ValidateResultStrict runs ValidateResult and then recomputes every slice
// against the timing table and the fault plan:
//
//   - each final slice's compute duration (slice length minus the recomputed
//     communication stall) must be exactly the expected duration when Sigma
//     is zero and the resource is never degraded, and inside
//     [E·minFactor, E·(1+10σ)·maxFactor] otherwise;
//   - no final or killed slice may overlap a transient outage window of its
//     resource (touching endpoints are legal: completions win ties against
//     fault events);
//   - nothing may execute on a resource after its permanent death, and the
//     plan must leave at least one resource alive — otherwise a complete
//     result is impossible and the engine should have failed;
//   - every recorded Kill must be consistent (known task and resource,
//     attempt killed after it started, cause an outage or death).
//
// The recomputed stall uses the final trace: predecessors are always Done
// before a successor starts and their (End, AssignedTo) never change
// afterwards, so the reconstruction is sound even under kills.
func ValidateResultStrict(g *taskgraph.Graph, res Result, opt CheckOptions) error {
	if err := ValidateResult(g, opt.Platform.Size(), res); err != nil {
		return err
	}
	if err := opt.Faults.Validate(opt.Platform.Size()); err != nil {
		return err
	}
	byTask := make([]Placement, g.NumTasks())
	for _, p := range res.Trace {
		byTask[p.Task] = p
	}
	// Per-resource degrade factor bounds and fault windows from the plan.
	numRes := opt.Platform.Size()
	minF := make([]float64, numRes)
	maxF := make([]float64, numRes)
	degraded := make([]bool, numRes)
	deathAt := make([]float64, numRes)
	for r := 0; r < numRes; r++ {
		minF[r], maxF[r] = 1, 1
		deathAt[r] = math.Inf(1)
	}
	var outages []FaultEvent
	if opt.Faults != nil {
		for _, e := range opt.Faults.Events {
			switch e.Kind {
			case FaultOutage:
				outages = append(outages, e)
			case FaultDeath:
				if e.At < deathAt[e.Resource] {
					deathAt[e.Resource] = e.At
				}
			case FaultDegrade:
				degraded[e.Resource] = true
				minF[e.Resource] = math.Min(minF[e.Resource], e.Factor)
				maxF[e.Resource] = math.Max(maxF[e.Resource], e.Factor)
			}
		}
	}
	survivors := 0
	for r := 0; r < numRes; r++ {
		if math.IsInf(deathAt[r], 1) {
			survivors++
		}
	}
	if numRes > 0 && survivors == 0 {
		return fmt.Errorf("sim: fault plan kills every resource, yet the result claims completion")
	}

	// Slice-level duration and fault-window checks for the final attempts.
	for t := 0; t < g.NumTasks(); t++ {
		p := byTask[t]
		// Recompute the communication stall embedded in the slice.
		var ready float64
		for _, pr := range g.Pred[t] {
			at := byTask[pr].End + opt.Comm.Cost(byTask[pr].Resource, p.Resource)
			if at > ready {
				ready = at
			}
		}
		stall := ready - p.Start
		if stall < 0 {
			stall = 0
		}
		work := (p.End - p.Start) - stall
		e := opt.timingOf(t).ExpectedDuration(g.Tasks[t].Kernel, opt.Platform.Resources[p.Resource].Type)
		tol := float64(strictRelTol*e) + strictAbsTol
		if opt.Sigma == 0 && !degraded[p.Resource] {
			if math.Abs(work-e) > tol {
				return fmt.Errorf("sim: task %d compute time %.6f != expected %.6f on resource %d (sigma 0, no degrade)",
					t, work, e, p.Resource)
			}
		} else {
			lo := 0.0
			if opt.Sigma == 0 {
				lo = float64(e*minF[p.Resource]) - tol
			}
			hi := float64(e*sigmaEnvelope(opt.Sigma)*maxF[p.Resource]) + tol
			if work < lo || work > hi {
				return fmt.Errorf("sim: task %d compute time %.6f outside [%.6f, %.6f] on resource %d",
					t, work, lo, hi, p.Resource)
			}
		}
		if err := checkSliceAgainstFaults(fmt.Sprintf("task %d", t), p.Resource, p.Start, p.End, outages, deathAt); err != nil {
			return err
		}
	}

	// Killed attempts: internally consistent and inside no forbidden window
	// (the attempt ends exactly when the fault fires, so only the open
	// interval before the kill matters).
	for i, k := range res.Kills {
		if k.Task < 0 || k.Task >= g.NumTasks() {
			return fmt.Errorf("sim: kill %d names unknown task %d", i, k.Task)
		}
		if k.Resource < 0 || k.Resource >= numRes {
			return fmt.Errorf("sim: kill %d on unknown resource %d", i, k.Resource)
		}
		if k.At < k.Start-strictAbsTol {
			return fmt.Errorf("sim: kill %d of task %d at %.3f precedes its start %.3f", i, k.Task, k.At, k.Start)
		}
		if k.Cause != FaultOutage && k.Cause != FaultDeath {
			return fmt.Errorf("sim: kill %d of task %d has non-killing cause %v", i, k.Task, k.Cause)
		}
		if err := checkSliceAgainstFaults(fmt.Sprintf("killed attempt of task %d", k.Task),
			k.Resource, k.Start, k.At, outages, deathAt); err != nil {
			return err
		}
	}
	return nil
}

// checkSliceAgainstFaults rejects a slice [start, end] on resource r that
// overlaps an outage window of r with positive measure, or extends past r's
// death. Touching endpoints are legal: the engine lets completions win ties,
// and re-executions may start exactly at a recovery instant.
func checkSliceAgainstFaults(what string, r int, start, end float64, outages []FaultEvent, deathAt []float64) error {
	for _, o := range outages {
		if o.Resource != r {
			continue
		}
		oEnd := o.At + o.Duration
		if start < oEnd-strictAbsTol && end > o.At+strictAbsTol {
			return fmt.Errorf("sim: %s [%.3f, %.3f] overlaps outage [%.3f, %.3f] on resource %d",
				what, start, end, o.At, oEnd, r)
		}
	}
	if end > deathAt[r]+strictAbsTol {
		return fmt.Errorf("sim: %s runs until %.3f on resource %d, which died at %.3f", what, end, r, deathAt[r])
	}
	return nil
}
