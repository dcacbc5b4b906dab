package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Fault injection.
//
// Real heterogeneous platforms exhibit harsher drift than duration noise:
// resources slow down, drop out for a while, or disappear and take their
// in-flight work with them. A FaultPlan is a deterministic list of such
// events replayed by the event-driven engine:
//
//   - FaultOutage: the resource is unavailable over [At, At+Duration). The
//     in-flight task (and its active inbound transfers) is killed and
//     returns to the ready set; completed predecessors' outputs are
//     retained, so only the killed attempt is lost.
//   - FaultDeath: the resource never returns (an outage with no end).
//     Pending work planned on it must be re-placed elsewhere.
//   - FaultDegrade: the resource's speed factor changes mid-run. The
//     remaining wall-clock of the task executing on it is re-timed by the
//     factor ratio, and every later task started on it samples its duration
//     scaled by the new factor.
//
// The plan is external state: policies never see future events, only the
// current resource state exposed on State (Up, Dead, Speed, FaultEpoch).
// Fault plans are pure data derived from a seed, so the same (plan, RNG
// seed) pair replays bit-identically — the chaos property suite relies on
// this.

// FaultKind enumerates the fault event kinds.
type FaultKind int

// Fault event kinds.
const (
	FaultOutage FaultKind = iota
	FaultDeath
	FaultDegrade
)

// String names the kind for error messages and traces.
func (k FaultKind) String() string {
	switch k {
	case FaultOutage:
		return "outage"
	case FaultDeath:
		return "death"
	case FaultDegrade:
		return "degrade"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultEvent is one scheduled fault against one resource.
type FaultEvent struct {
	Kind     FaultKind
	Resource int
	// At is the simulated time (ms) at which the event fires.
	At float64
	// Duration is the outage length in ms (FaultOutage only).
	Duration float64
	// Factor is the new duration multiplier (FaultDegrade only): 1 is
	// nominal speed, 2 doubles every remaining and future duration on the
	// resource. Factors below 1 model recovery or speed-up.
	Factor float64
}

// FaultPlan is a deterministic schedule of fault events. The zero value (and
// nil) injects nothing; the engine is proven bit-inert in that case.
type FaultPlan struct {
	Events []FaultEvent
}

// Empty reports whether the plan injects no events.
func (p *FaultPlan) Empty() bool { return p == nil || len(p.Events) == 0 }

// Validate checks the plan against a platform size: known kinds, existing
// resources, non-negative times, positive outage durations and degrade
// factors.
func (p *FaultPlan) Validate(numResources int) error {
	if p == nil {
		return nil
	}
	for i, e := range p.Events {
		if e.Resource < 0 || e.Resource >= numResources {
			return fmt.Errorf("sim: fault event %d targets unknown resource %d", i, e.Resource)
		}
		if e.At < 0 || math.IsNaN(e.At) || math.IsInf(e.At, 0) {
			return fmt.Errorf("sim: fault event %d has invalid time %v", i, e.At)
		}
		switch e.Kind {
		case FaultOutage:
			if e.Duration <= 0 || math.IsNaN(e.Duration) || math.IsInf(e.Duration, 0) {
				return fmt.Errorf("sim: outage event %d has invalid duration %v", i, e.Duration)
			}
		case FaultDeath:
			// Nothing further.
		case FaultDegrade:
			if e.Factor <= 0 || math.IsNaN(e.Factor) || math.IsInf(e.Factor, 0) {
				return fmt.Errorf("sim: degrade event %d has invalid factor %v", i, e.Factor)
			}
		default:
			return fmt.Errorf("sim: fault event %d has unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// Kill records one killed task attempt: the task was executing on Resource
// since Start and was terminated by a fault at At, then returned to the
// ready set.
type Kill struct {
	Task     int
	Resource int
	Start    float64
	At       float64
	// Cause is the fault kind that killed the attempt (outage or death).
	Cause FaultKind
}

// FaultSpec parameterises the seed-derived fault-plan generator. All rates
// are expected event counts per resource over the horizon, so one scalar
// "fault rate" scales naturally (see SpecForRate). The zero value disables
// fault injection entirely.
type FaultSpec struct {
	// Horizon is the time window (ms) over which events are drawn. Events
	// beyond the actual makespan simply never fire. When zero, callers that
	// derive plans from problems (core.Problem, the trainers) substitute a
	// multiple of the HEFT projected makespan.
	Horizon float64
	// OutageRate is the expected number of transient outages per resource.
	OutageRate float64
	// DeathProb is the per-resource probability of permanent death at a
	// uniform time in the horizon. One uniformly chosen resource is always
	// spared so that at least one compatible resource survives any plan.
	DeathProb float64
	// DegradeRate is the expected number of speed-factor changes per
	// resource.
	DegradeRate float64
}

// Enabled reports whether the spec can generate any event.
func (sp FaultSpec) Enabled() bool {
	return sp.OutageRate > 0 || sp.DeathProb > 0 || sp.DegradeRate > 0
}

// SpecForRate maps one scalar fault rate to a full spec over the given
// horizon: rate outages and degrades per resource, and a death probability
// growing with the rate but capped so platforms keep most of their
// resources at moderate rates. Rate 0 disables everything; rate 1 is the
// benchmark's "one disruption of each kind per resource" operating point.
func SpecForRate(rate, horizon float64) FaultSpec {
	if rate <= 0 {
		return FaultSpec{Horizon: horizon}
	}
	return FaultSpec{
		Horizon:     horizon,
		OutageRate:  rate,
		DeathProb:   min(0.15*rate, 0.4),
		DegradeRate: rate,
	}
}

// An outage lasts outageMeanFrac of the horizon on average, exponentially
// distributed; a degrade event slows its resource by degradeFactor.
const (
	outageMeanFrac = 0.08
	degradeFactor  = 1.25
)

// PlanSeed is the seed of the fault plan of the run seeded with seed, for
// every caller that names its runs by seed (the comparison tables, the
// stream sweep, readys-sim and readys-stream). The offset keeps a run's plan
// seed clear of the run seeds of its sweep.
func PlanSeed(seed int64) int64 { return seed + 104729 }

// GeneratePlan derives a deterministic fault plan from a seed: same (seed,
// numResources, spec) always yields the same plan, independent of any other
// randomness, so per-episode fault streams compose with the splitmix64
// episode seeding without disturbing duration noise. Event counts per
// resource are drawn as floor(rate) plus a Bernoulli on the fractional
// part, times uniformly over the horizon, outage lengths exponentially.
func GeneratePlan(seed int64, numResources int, spec FaultSpec) *FaultPlan {
	plan := &FaultPlan{}
	if !spec.Enabled() || spec.Horizon <= 0 || numResources <= 0 {
		return plan
	}
	rng := rand.New(rand.NewSource(seed))
	h := spec.Horizon
	// One resource is always spared from permanent death so that every task
	// retains at least one compatible resource.
	spared := rng.Intn(numResources)
	for r := 0; r < numResources; r++ {
		for i := 0; i < drawCount(rng, spec.OutageRate); i++ {
			at := rng.Float64() * h
			dur := rng.ExpFloat64() * outageMeanFrac * h
			if dur <= 0 {
				dur = outageMeanFrac * h
			}
			plan.Events = append(plan.Events, FaultEvent{Kind: FaultOutage, Resource: r, At: at, Duration: dur})
		}
		if r != spared && spec.DeathProb > 0 && rng.Float64() < spec.DeathProb {
			plan.Events = append(plan.Events, FaultEvent{Kind: FaultDeath, Resource: r, At: rng.Float64() * h})
		}
		for i := 0; i < drawCount(rng, spec.DegradeRate); i++ {
			at := rng.Float64() * h
			plan.Events = append(plan.Events, FaultEvent{Kind: FaultDegrade, Resource: r, At: at, Factor: degradeFactor})
		}
	}
	sortEvents(plan.Events)
	return plan
}

// drawCount samples floor(rate) + Bernoulli(frac(rate)) events.
func drawCount(rng *rand.Rand, rate float64) int {
	if rate <= 0 {
		return 0
	}
	n := int(rate)
	if rng.Float64() < rate-float64(n) {
		n++
	}
	return n
}

// sortEvents orders events deterministically: by time, then kind (recovery
// semantics are handled in the engine), then resource, then duration/factor
// as final tie-breaks.
func sortEvents(evs []FaultEvent) {
	sort.Slice(evs, func(a, b int) bool {
		x, y := evs[a], evs[b]
		if x.At != y.At {
			return x.At < y.At
		}
		if x.Kind != y.Kind {
			return x.Kind < y.Kind
		}
		if x.Resource != y.Resource {
			return x.Resource < y.Resource
		}
		if x.Duration != y.Duration {
			return x.Duration < y.Duration
		}
		return x.Factor < y.Factor
	})
}

// Internal fault timeline. FaultOutage expands into a down transition plus a
// recovery transition so the engine can advance time to either boundary.
type tlKind int

const (
	tlRecover tlKind = iota // ordered first at equal times: recover, then fail
	tlDeath
	tlOutage
	tlDegrade
)

type tlEvent struct {
	at       float64
	kind     tlKind
	resource int
	// end is the outage end (At+Duration) for tlOutage; for tlRecover, at
	// equals the end of the outage that scheduled it.
	end float64
	// factor is the degrade factor for tlDegrade.
	factor float64
}

// faultTimeline is the engine-side expansion of a FaultPlan: a time-ordered
// event cursor.
type faultTimeline struct {
	events []tlEvent
	next   int
}

// load rewinds the timeline onto plan p, keeping the event array.
func (tl *faultTimeline) load(p *FaultPlan) {
	tl.events, tl.next = tl.events[:0], 0
	if p.Empty() {
		return
	}
	for _, e := range p.Events {
		switch e.Kind {
		case FaultOutage:
			end := e.At + e.Duration
			tl.events = append(tl.events,
				tlEvent{at: e.At, kind: tlOutage, resource: e.Resource, end: end},
				tlEvent{at: end, kind: tlRecover, resource: e.Resource, end: end})
		case FaultDeath:
			tl.events = append(tl.events, tlEvent{at: e.At, kind: tlDeath, resource: e.Resource})
		case FaultDegrade:
			tl.events = append(tl.events, tlEvent{at: e.At, kind: tlDegrade, resource: e.Resource, factor: e.Factor})
		}
	}
	sort.Slice(tl.events, func(a, b int) bool {
		x, y := tl.events[a], tl.events[b]
		if x.at != y.at {
			return x.at < y.at
		}
		if x.kind != y.kind {
			return x.kind < y.kind
		}
		if x.resource != y.resource {
			return x.resource < y.resource
		}
		return x.end < y.end
	})
}

// nextTime returns the time of the next pending event, or +Inf.
func (tl *faultTimeline) nextTime() float64 {
	if tl.next >= len(tl.events) {
		return math.Inf(1)
	}
	return tl.events[tl.next].at
}
