package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs,
// which must be sorted ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value of xs (mean of the two middle values for an
// even count) without reordering the caller's slice. Empty input gives 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func sumOf(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sumOf(xs) / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailCandidates are the tail percentiles a latency may be reported at,
// highest first.
var tailCandidates = []float64{99, 95, 90, 75}

// tailPercentile picks the highest candidate percentile that still has at
// least ten of n samples beyond it: a p99 read off 200 samples is the second
// largest value and repeats badly, a p95 of the same 200 rests on ten.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return tailCandidates[len(tailCandidates)-1]
}

// roundStats is what one round of consecutive ops contributes to the timed
// metrics: its throughput, median and tail latency.
type roundStats struct {
	ops     int
	wallS   float64
	p50Ms   float64
	tailMs  float64
	tailPct float64
}

// summariseRound reduces one round's latencies (ms, any order) to its
// throughput, median and tail. The tail percentile follows tailPercentile,
// capped at maxTailPct.
func summariseRound(latMs []float64, wallS, maxTailPct float64) roundStats {
	s := sortedCopy(latMs)
	pct := tailPercentile(len(s))
	if pct > maxTailPct {
		pct = maxTailPct
	}
	return roundStats{
		ops:     len(s),
		wallS:   wallS,
		p50Ms:   percentile(s, 50),
		tailMs:  percentile(s, pct),
		tailPct: pct,
	}
}

// measuredRounds is how many equal rounds a measured phase is split into.
// Interference on a shared host comes in bursts of seconds; the median over
// seven rounds is a round the burst did not reach unless it spoiled four.
const measuredRounds = 7

// timed are the three timed metrics of a measured phase.
type timed struct{ opsPerS, p50Ms, tailMs float64 }

// medianOfRounds reports a run as the median over its rounds, as measured.
func medianOfRounds(rounds []roundStats) timed {
	var rate, p50, tail []float64
	for _, r := range rounds {
		rate = append(rate, float64(r.ops)/r.wallS)
		p50 = append(p50, r.p50Ms)
		tail = append(tail, r.tailMs)
	}
	return timed{median(rate), median(p50), median(tail)}
}

// setupTimer times a workload's set-up, which a run repeats several times.
type setupTimer struct {
	firstBegan float64   // start of the first repetition, seconds since processStart
	reps       []float64 // length of each repetition in seconds
}

// begin marks the start of one repetition.
func (t *setupTimer) begin() time.Time {
	now := time.Now()
	if len(t.reps) == 0 {
		t.firstBegan = now.Sub(processStart).Seconds()
	}
	return now
}

func (t *setupTimer) end(began time.Time) { t.reps = append(t.reps, time.Since(began).Seconds()) }

// seconds is the run's set-up time: what the process spent before its first
// set-up began plus the median repetition. Work a change moves into set-up
// lengthens every repetition; work it moves into package initialisation
// delays the first.
func (t *setupTimer) seconds() float64 { return t.firstBegan + median(t.reps) }

// quartiles returns the first, second and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) does (the "exclusive" method), which
// is how the benchmark driver computes a metric's run-to-run spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j, delta := i*m/n, i*m%n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// worseBy reports by what share of a the value b is worse than a, given the
// metric's direction; negative when b is better.
func worseBy(a, b float64, higherIsBetter bool) float64 {
	if a == 0 {
		return 0
	}
	if higherIsBetter {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}
