// Package sched implements the classical scheduling algorithms READYS is
// compared against in the paper: the static HEFT heuristic [48] (upward
// ranks + insertion-based earliest-finish-time allocation, executed as a
// fixed per-resource order under duration noise) and the dynamic MCT
// heuristic [46], plus auxiliary dynamic policies (random, FIFO, rank-greedy)
// used in tests and ablations.
package sched

import (
	"math"
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
	// Order[r] lists the tasks of resource r sorted by projected start.
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
	n := g.NumTasks()
	avg := make([]float64, taskgraph.NumKernels)
	for k := 0; k < taskgraph.NumKernels; k++ {
		var s float64
		for _, r := range plat.Resources {
			s += tt.ExpectedDuration(taskgraph.Kernel(k), r.Type)
		}
		avg[k] = s / float64(plat.Size())
	}
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	rank := make([]float64, n)
	for idx := n - 1; idx >= 0; idx-- {
		i := order[idx]
		var best float64
		for _, j := range g.Succ[i] {
			if rank[j] > best {
				best = rank[j]
			}
		}
		rank[i] = avg[g.Tasks[i].Kernel] + best
	}
	return rank
}

// UpwardRanksFor generalises UpwardRanks to per-task timing tables — the
// multi-family (streaming) case where each job's tasks carry the table of
// their own DAG family. timingOf is typically (*sim.State).TaskTiming. When
// every task resolves to the same table the arithmetic is identical to
// UpwardRanks, so single-DAG ranks are bit-equal.
func UpwardRanksFor(g *taskgraph.Graph, plat platform.Platform, timingOf func(task int) platform.Timing) []float64 {
	n := g.NumTasks()
	w := make([]float64, n)
	for i, t := range g.Tasks {
		var s float64
		tt := timingOf(i)
		for _, r := range plat.Resources {
			s += tt.ExpectedDuration(t.Kernel, r.Type)
		}
		w[i] = s / float64(plat.Size())
	}
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	rank := make([]float64, n)
	for idx := n - 1; idx >= 0; idx-- {
		i := order[idx]
		var best float64
		for _, j := range g.Succ[i] {
			if rank[j] > best {
				best = rank[j]
			}
		}
		rank[i] = w[i] + best
	}
	return rank
}

// slot is an occupied interval on a resource timeline.
type slot struct{ start, end float64 }

// HEFT computes the static HEFT schedule: tasks are taken in decreasing
// upward-rank order and each is placed on the resource (and in the earliest
// idle gap — insertion-based policy) minimising its earliest finish time
// under expected durations. Communication costs are zero, as in the paper.
func HEFT(g *taskgraph.Graph, plat platform.Platform, tt platform.Timing) *HEFTSchedule {
	n := g.NumTasks()
	rank := UpwardRanks(g, plat, tt)
	byRank := make([]int, n)
	for i := range byRank {
		byRank[i] = i
	}
	sort.Slice(byRank, func(a, b int) bool {
		if rank[byRank[a]] != rank[byRank[b]] {
			return rank[byRank[a]] > rank[byRank[b]]
		}
		return byRank[a] < byRank[b] // deterministic tie-break
	})

	sched := &HEFTSchedule{
		Assignment: make([]int, n),
		Order:      make([][]int, plat.Size()),
		ProjStart:  make([]float64, n),
		ProjEnd:    make([]float64, n),
		Rank:       rank,
	}
	for i := range sched.Assignment {
		sched.Assignment[i] = -1
	}
	timelines := make([][]slot, plat.Size())

	for _, t := range byRank {
		for _, p := range g.Pred[t] {
			if sched.Assignment[p] == -1 {
				// Decreasing rank order guarantees predecessors first
				// (rank(pred) > rank(succ) since w̄ > 0).
				panic("sched: HEFT predecessor not yet scheduled")
			}
		}
		// Earliest time every input is available: the predecessors'
		// projected completion, on any resource.
		var readyAt float64
		for _, p := range g.Pred[t] {
			if sched.ProjEnd[p] > readyAt {
				readyAt = sched.ProjEnd[p]
			}
		}
		bestRes, bestStart, bestEnd := -1, 0.0, math.Inf(1)
		for r := 0; r < plat.Size(); r++ {
			dur := tt.ExpectedDuration(g.Tasks[t].Kernel, plat.Resources[r].Type)
			start := earliestGap(timelines[r], readyAt, dur)
			if end := start + dur; end < bestEnd {
				bestRes, bestStart, bestEnd = r, start, end
			}
		}
		sched.Assignment[t] = bestRes
		sched.ProjStart[t] = bestStart
		sched.ProjEnd[t] = bestEnd
		timelines[bestRes] = insertSlot(timelines[bestRes], slot{bestStart, bestEnd})
		if bestEnd > sched.Makespan {
			sched.Makespan = bestEnd
		}
	}

	// Build per-resource orders sorted by projected start.
	for t := 0; t < n; t++ {
		r := sched.Assignment[t]
		sched.Order[r] = append(sched.Order[r], t)
	}
	for r := range sched.Order {
		o := sched.Order[r]
		sort.Slice(o, func(a, b int) bool { return sched.ProjStart[o[a]] < sched.ProjStart[o[b]] })
	}
	return sched
}

// earliestGap returns the earliest start ≥ readyAt at which a task of the
// given duration fits into the timeline (insertion-based policy): either
// inside an idle gap between existing slots or after the last one.
func earliestGap(tl []slot, readyAt, dur float64) float64 {
	cur := readyAt
	for _, s := range tl {
		if cur+dur <= s.start {
			return cur
		}
		if s.end > cur {
			cur = s.end
		}
	}
	return cur
}

// insertSlot keeps the timeline sorted by start time.
func insertSlot(tl []slot, s slot) []slot {
	i := sort.Search(len(tl), func(i int) bool { return tl[i].start >= s.start })
	tl = append(tl, slot{})
	copy(tl[i+1:], tl[i:])
	tl[i] = s
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
	p.next = make([]int, len(p.Schedule.Order))
}

// Decide starts resource r's next prescribed task if it is ready. Tasks
// already executed elsewhere (possible only under fault injection, when an
// emergency round re-placed killed work) are skipped. In a forced round the
// plan has failed — e.g. the task's prescribed resource died — and the
// policy falls back to the highest-rank ready task to keep the run alive;
// the makespan it pays for that is exactly the static plan's fragility.
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
		best, bestRank := sim.NoTask, math.Inf(-1)
		for _, t := range s.Ready {
			if p.Schedule.Rank[t] > bestRank || (p.Schedule.Rank[t] == bestRank && best != sim.NoTask && jobTaskLess(s, t, best)) {
				best, bestRank = t, p.Schedule.Rank[t]
			}
		}
		return best
	}
	return sim.NoTask
}
