// Package sched implements the list-scheduling baselines READYS is compared
// against. The paper's two are the static HEFT heuristic [48] (upward ranks +
// insertion-based earliest-finish-time placement, replayed as a fixed
// per-resource order under duration noise) and the dynamic MCT heuristic
// [46]. ReplanHEFT re-runs HEFT's placement whenever the world drifts; it
// feeds the resilience and stream tables. Min-Min, Max-Min, rank-greedy,
// FIFO and random are further readys-sim / readys-stream -policy choices.
//
// The family shares one copy of each mechanism: AppendUpwardRanks is the
// upward rank (HEFT, ReplanHEFT, RankPolicy and the stream's per-job HEFT),
// HEFTSchedule.place the insertion-based placement (HEFT and ReplanHEFT),
// StaticPolicy the plan cursor (HEFT and ReplanHEFT) and MCTChoice the
// minimum-ECT resource (MCT, Min-Min, Max-Min and per-job HEFT).
package sched

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"readys/internal/platform"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// HEFTSchedule is the static schedule computed by HEFT from *expected*
// durations: a task→resource assignment, the per-resource execution order and
// the projected (noise-free) timings.
type HEFTSchedule struct {
	// Assignment[t] is the resource chosen for task t.
	Assignment []int
	// Order[r] lists the tasks of resource r sorted by projected start; a
	// re-plan's also holds the task running on r, which StaticPolicy skips.
	Order [][]int
	// ProjStart and ProjEnd are the projected task timings under expected
	// durations.
	ProjStart, ProjEnd []float64
	// Makespan is the projected makespan.
	Makespan float64
	// Rank holds the HEFT upward ranks (also usable as dynamic priorities).
	Rank []float64
}

// UpwardRanks computes the HEFT upward rank of every task:
//
//	rank(i) = w̄(i) + max_{j ∈ succ(i)} rank(j)
//
// with w̄(i) the expected duration of i averaged over the platform's
// resources and zero communication costs (communications are overlapped,
// §III-A).
func UpwardRanks(g *taskgraph.Graph, plat platform.Platform, tt platform.Timing) []float64 {
	return AppendUpwardRanks(nil, g, plat, func(int) platform.Timing { return tt })
}

// AppendUpwardRanks extends rank, the upward ranks of tasks 0…len(rank)−1, to
// every task of g, resolving task i's expected durations through
// timingOf(i) — (*sim.State).TaskTiming in a stream, where each job carries
// its own family's table. It visits the new tasks only, so it is for graphs
// that grow by appending whole components (g.ReverseTopoFrom): a stream's
// union DAG, whose earlier ranks stay final, or a fresh graph from a nil
// slice.
func AppendUpwardRanks(rank []float64, g *taskgraph.Graph, plat platform.Platform, timingOf func(task int) platform.Timing) []float64 {
	lo, n := len(rank), g.NumTasks()
	if lo >= n {
		return rank
	}
	order, err := g.ReverseTopoFrom(lo)
	if err != nil {
		panic(err)
	}
	rank = append(rank, make([]float64, n-lo)...)
	for _, i := range order {
		var w float64
		tt := timingOf(i)
		for _, r := range plat.Resources {
			w += tt.ExpectedDuration(g.Tasks[i].Kernel, r.Type)
		}
		var best float64
		for _, j := range g.Succ[i] {
			if rank[j] > best {
				best = rank[j]
			}
		}
		rank[i] = w/float64(plat.Size()) + best
	}
	return rank
}

// HEFT computes the static HEFT schedule: tasks are taken in decreasing
// upward-rank order and each is placed on the resource (and in the earliest
// idle gap — insertion-based policy) minimising its earliest finish time
// under expected durations. Communication costs are zero, as in the paper.
func HEFT(g *taskgraph.Graph, plat platform.Platform, tt platform.Timing) *HEFTSchedule {
	plan := newPlan(g.NumTasks(), plat.Size(), UpwardRanks(g, plat, tt))
	plan.place(g, 0, 0, func(t, r int) float64 {
		return tt.ExpectedDuration(g.Tasks[t].Kernel, plat.Resources[r].Type)
	})
	return plan
}

// newPlan returns a schedule of n tasks on m resources with nothing placed.
func newPlan(n, m int, rank []float64) *HEFTSchedule {
	plan := &HEFTSchedule{
		Assignment: make([]int, n),
		Order:      make([][]int, m),
		ProjStart:  make([]float64, n),
		ProjEnd:    make([]float64, n),
		Rank:       rank,
	}
	for i := range plan.Assignment {
		plan.Assignment[i] = -1
	}
	return plan
}

// place is HEFT's insertion-based earliest-finish-time loop. It takes every
// task from the first on whose Assignment is still -1 in decreasing rank
// order (ties to the smaller ID) and puts it on the resource, and in the
// earliest idle gap, that minimises its projected end. A task is ready at the latest of floor and its
// predecessors' ProjEnd; dur(t, r) is its duration on r, +Inf when r may not
// take it. Order[r] is r's timeline: the caller may seed it with
// reservations — tasks with their projected interval set — sorted by start,
// and every placed task is inserted by its projected start.
func (p *HEFTSchedule) place(g *taskgraph.Graph, first int, floor float64, dur func(t, r int) float64) {
	tasks := make([]int, 0, len(p.Assignment)-first)
	for t := first; t < len(p.Assignment); t++ {
		if p.Assignment[t] == -1 {
			tasks = append(tasks, t)
		}
	}
	slices.SortFunc(tasks, func(a, b int) int {
		if c := cmp.Compare(p.Rank[b], p.Rank[a]); c != 0 {
			return c
		}
		return a - b
	})
	for _, t := range tasks {
		// Earliest time every input is available: the predecessors'
		// projected completion, on any resource.
		readyAt := floor
		for _, pr := range g.Pred[t] {
			if p.Assignment[pr] == -1 {
				// Decreasing rank order guarantees predecessors first
				// (rank(pred) > rank(succ) since w̄ > 0).
				panic("sched: HEFT predecessor not yet scheduled")
			}
			if p.ProjEnd[pr] > readyAt {
				readyAt = p.ProjEnd[pr]
			}
		}
		bestRes, bestStart, bestEnd := -1, 0.0, math.Inf(1)
		for r := range p.Order {
			d := dur(t, r)
			if math.IsInf(d, 1) {
				continue
			}
			start := p.earliestGap(p.Order[r], readyAt, d)
			if end := start + d; end < bestEnd {
				bestRes, bestStart, bestEnd = r, start, end
			}
		}
		p.Assignment[t] = bestRes
		p.ProjStart[t] = bestStart
		p.ProjEnd[t] = bestEnd
		p.Order[bestRes] = p.insert(p.Order[bestRes], t)
		if bestEnd > p.Makespan {
			p.Makespan = bestEnd
		}
	}
}

// earliestGap returns the earliest start ≥ readyAt at which a task of the
// given duration fits into the timeline tl, a list of tasks sorted by
// projected start (insertion-based policy): either inside an idle gap between
// their projected intervals or after the last one.
func (p *HEFTSchedule) earliestGap(tl []int, readyAt, dur float64) float64 {
	cur := readyAt
	for _, t := range tl {
		if cur+dur <= p.ProjStart[t] {
			return cur
		}
		if p.ProjEnd[t] > cur {
			cur = p.ProjEnd[t]
		}
	}
	return cur
}

// insert puts task t, its projected interval already set, into the timeline
// tl, keeping it sorted by projected start.
func (p *HEFTSchedule) insert(tl []int, t int) []int {
	start := p.ProjStart[t]
	i := sort.Search(len(tl), func(i int) bool { return p.ProjStart[tl[i]] >= start })
	tl = append(tl, 0)
	copy(tl[i+1:], tl[i:])
	tl[i] = t
	return tl
}

// StaticPolicy replays a static schedule inside the dynamic simulator: each
// resource executes its assigned tasks in the prescribed order, starting the
// next one as soon as it is ready. Under duration noise the realised timings
// drift from the projection — the effect the paper measures for HEFT.
type StaticPolicy struct {
	Schedule *HEFTSchedule
	next     []int
}

// NewStaticPolicy wraps a static schedule as a simulator policy.
func NewStaticPolicy(s *HEFTSchedule) *StaticPolicy {
	return &StaticPolicy{Schedule: s}
}

// Reset rewinds the per-resource cursors.
func (p *StaticPolicy) Reset(*sim.State) {
	p.next = append(p.next[:0], make([]int, len(p.Schedule.Order))...)
}

// Decide starts resource r's next prescribed task if it is ready. Tasks
// already started or executed elsewhere (a re-plan's running reservations,
// or killed work an emergency round re-placed under fault injection) are
// skipped. In a forced round the plan has failed — e.g. the task's
// prescribed resource died — and the policy falls back to the highest-rank
// ready task to keep the run alive; the makespan it pays for that is exactly
// the static plan's fragility.
func (p *StaticPolicy) Decide(s *sim.State, r int) int {
	order := p.Schedule.Order[r]
	for p.next[r] < len(order) {
		t := order[p.next[r]]
		if s.Done[t] || s.Started[t] {
			p.next[r]++
			continue
		}
		if s.PredLeft[t] != 0 {
			break
		}
		p.next[r]++
		return t
	}
	if s.MustAct {
		return highestRank(s, p.Schedule.Rank)
	}
	return sim.NoTask
}
