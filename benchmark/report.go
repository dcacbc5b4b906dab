package main

import (
	"fmt"
	"strings"
)

// setupRepetitions is how often a run sets its workload up; setup_s is the
// median repetition.
const setupRepetitions = 5

// e2eMetrics writes the end-to-end metrics of a measured phase, all as
// measured, and the demoted ones next to them.
func e2eMetrics(o *outcome, setup setupTimer, t timed, m meterResult, ops int, quality float64) {
	o.notef("set-up: %.4g s before the first, repetitions %.4g s", setup.firstBegan, setup.reps)
	o.metrics["setup_s"] = setup.seconds()
	o.metrics["alloc_kb_per_op"] = float64(m.allocBytes) / 1024 / float64(ops)
	o.metrics["peak_live_heap_mb"] = float64(m.peakLiveBytes) / (1 << 20)
	demotedMetrics(o, t, quality)
}

// demotedMetrics writes speed and quality: from the rounds of the measured
// phase, or from the untraced rounds of the traced pass.
func demotedMetrics(o *outcome, t timed, quality float64) {
	o.metrics["ops_per_s"], o.metrics["latency_p50_ms"], o.metrics["latency_tail_ms"] = t.opsPerS, t.p50Ms, t.tailMs
	o.metrics["quality_vs_heft"] = quality
}

// noteRounds prints every round's throughput and median latency, so a reader
// sees the range the reported medians were taken from.
func noteRounds(o *outcome, rounds []roundStats) {
	var b strings.Builder
	for _, r := range rounds {
		fmt.Fprintf(&b, " %.5g/%.5g", float64(r.ops)/r.wallS, r.p50Ms)
	}
	o.notef("per round ops_per_s/latency_p50_ms:%s", b.String())
}
