package main

import (
	"fmt"
	"io"
	"math"
)

// The perf-regression gate: readys-bench -compare BENCH_old.json diffs the
// current run against a committed trajectory snapshot and fails (exit 1) when
// a key metric regressed beyond the tolerance. Only config-matched rows are
// compared — spmm by matrix size, decide/train by (kind, T), stream by
// (policy, jobs) — and every unmatched row is printed as skipped rather than
// silently dropped, so a baseline that predates a section (e.g. stream) still
// gates everything it does cover.

// keyMetrics defines what "regressed" means per section: the one
// judgement metric of each row and its direction.
type metricDelta struct {
	Section string  // spmm | decide | train | stream
	Config  string  // row identity, e.g. "n=128" or "cholesky T=8"
	Metric  string  // JSON field name of the judged metric
	Old     float64 // baseline value
	New     float64 // current value
	// Delta is the signed fractional change in the direction of harm:
	// positive always means worse, whatever the metric's polarity.
	Delta     float64
	Regressed bool
}

// harmDelta returns the fractional change of new vs old oriented so that
// positive = worse. lowerBetter metrics (latencies) worsen as they grow;
// higherBetter metrics (throughputs) worsen as they shrink.
func harmDelta(old, new float64, lowerBetter bool) float64 {
	if old == 0 {
		return 0
	}
	d := (new - old) / old
	if !lowerBetter {
		d = -d
	}
	return d
}

// compareReports matches rows between the baseline and the current report and
// judges each matched key metric against tol (a fraction, e.g. 0.20). It
// returns the judged deltas, descriptions of every unmatched row, and whether
// anything regressed.
func compareReports(old, cur report, tol float64) (rows []metricDelta, skipped []string, regressed bool) {
	judge := func(section, config, metric string, o, n float64, lowerBetter bool) {
		d := harmDelta(o, n, lowerBetter)
		r := d > tol
		rows = append(rows, metricDelta{
			Section: section, Config: config, Metric: metric,
			Old: o, New: n, Delta: d, Regressed: r,
		})
		regressed = regressed || r
	}

	// spmm by matrix size: the CSR hot path's ns/op.
	oldSp := make(map[int]spmmResult, len(old.SpMM))
	for _, r := range old.SpMM {
		oldSp[r.N] = r
	}
	matchedSp := make(map[int]bool)
	for _, c := range cur.SpMM {
		o, ok := oldSp[c.N]
		if !ok {
			skipped = append(skipped, fmt.Sprintf("spmm n=%d: not in baseline", c.N))
			continue
		}
		matchedSp[c.N] = true
		judge("spmm", fmt.Sprintf("n=%d", c.N), "sparse_ns_op", float64(o.SparseNsOp), float64(c.SparseNsOp), true)
	}
	for _, o := range old.SpMM {
		if !matchedSp[o.N] {
			skipped = append(skipped, fmt.Sprintf("spmm n=%d: not in current run", o.N))
		}
	}

	// decide by (kind, T, path, precision): ns per decision of each decision
	// pipeline. Pre-PR-8 baselines carry only the unlabeled (path="",
	// precision="") row, so the labeled pipeline rows of a current run are
	// skipped against them rather than failing the gate; once a snapshot with
	// labeled rows is committed, every pipeline gates independently.
	type dk struct {
		kind            string
		t               int
		path, precision string
	}
	decCfg := func(k dk) string {
		s := fmt.Sprintf("%s T=%d", k.kind, k.t)
		if k.path != "" {
			s += " " + k.path
			if k.precision != "" {
				s += "/" + k.precision
			}
		}
		return s
	}
	oldDec := make(map[dk]decideResult, len(old.Decide))
	for _, r := range old.Decide {
		oldDec[dk{r.Kind, r.T, r.Path, r.Precision}] = r
	}
	matchedDec := make(map[dk]bool)
	for _, c := range cur.Decide {
		k := dk{c.Kind, c.T, c.Path, c.Precision}
		o, ok := oldDec[k]
		if !ok {
			skipped = append(skipped, fmt.Sprintf("decide %s: not in baseline", decCfg(k)))
			continue
		}
		matchedDec[k] = true
		judge("decide", decCfg(k), "ns_per_decision", float64(o.NsPerDecision), float64(c.NsPerDecision), true)
	}
	for _, o := range old.Decide {
		if k := (dk{o.Kind, o.T, o.Path, o.Precision}); !matchedDec[k] {
			skipped = append(skipped, fmt.Sprintf("decide %s: not in current run", decCfg(k)))
		}
	}

	// train by (kind, T): sparse training throughput.
	type tk struct {
		kind string
		t    int
	}
	oldTr := make(map[tk]trainResult, len(old.Train))
	for _, r := range old.Train {
		oldTr[tk{r.Kind, r.T}] = r
	}
	matchedTr := make(map[tk]bool)
	for _, c := range cur.Train {
		k := tk{c.Kind, c.T}
		o, ok := oldTr[k]
		if !ok {
			skipped = append(skipped, fmt.Sprintf("train %s T=%d: not in baseline", c.Kind, c.T))
			continue
		}
		matchedTr[k] = true
		judge("train", fmt.Sprintf("%s T=%d", c.Kind, c.T), "sparse_eps_per_sec", o.SparseEpsPerSec, c.SparseEpsPerSec, false)
	}
	for _, o := range old.Train {
		if !matchedTr[tk{o.Kind, o.T}] {
			skipped = append(skipped, fmt.Sprintf("train %s T=%d: not in current run", o.Kind, o.T))
		}
	}

	// stream by (policy, jobs): end-to-end scheduling throughput.
	type sk struct {
		policy string
		jobs   int
	}
	oldSt := make(map[sk]streamResult, len(old.Stream))
	for _, r := range old.Stream {
		oldSt[sk{r.Policy, r.Jobs}] = r
	}
	matchedSt := make(map[sk]bool)
	for _, c := range cur.Stream {
		k := sk{c.Policy, c.Jobs}
		o, ok := oldSt[k]
		if !ok {
			skipped = append(skipped, fmt.Sprintf("stream %s jobs=%d: not in baseline", c.Policy, c.Jobs))
			continue
		}
		matchedSt[k] = true
		judge("stream", fmt.Sprintf("%s jobs=%d", c.Policy, c.Jobs), "stream_jobs_per_sec", o.JobsPerSec, c.JobsPerSec, false)
	}
	for _, o := range old.Stream {
		if !matchedSt[sk{o.Policy, o.Jobs}] {
			skipped = append(skipped, fmt.Sprintf("stream %s jobs=%d: not in current run", o.Policy, o.Jobs))
		}
	}
	return rows, skipped, regressed
}

// printComparison renders the delta table. Delta is printed in the direction
// of harm (positive = worse), so "+25.0% REGRESSED" reads the same way for a
// latency that grew and a throughput that shrank.
func printComparison(w io.Writer, baseline string, rows []metricDelta, skipped []string, tol float64) {
	fmt.Fprintf(w, "comparing against %s (tolerance %.0f%%)\n", baseline, 100*tol)
	fmt.Fprintf(w, "%-7s %-28s %-20s %12s %12s %9s  %s\n",
		"section", "config", "metric", "old", "new", "delta", "status")
	for _, r := range rows {
		status := "ok"
		if r.Regressed {
			status = "REGRESSED"
		} else if r.Delta < -0.001 {
			status = "improved"
		}
		fmt.Fprintf(w, "%-7s %-28s %-20s %12.4g %12.4g %+8.1f%%  %s\n",
			r.Section, r.Config, r.Metric, r.Old, r.New, 100*r.Delta, status)
	}
	for _, s := range skipped {
		fmt.Fprintf(w, "skipped: %s\n", s)
	}
}

// worstDelta returns the largest harm-direction delta (0 for no rows).
func worstDelta(rows []metricDelta) float64 {
	worst := math.Inf(-1)
	for _, r := range rows {
		if r.Delta > worst {
			worst = r.Delta
		}
	}
	if math.IsInf(worst, -1) {
		return 0
	}
	return worst
}
