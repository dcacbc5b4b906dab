// readys-eval loads a trained READYS checkpoint and compares it with the HEFT
// and MCT baselines across the noise sweep on a chosen problem, or — with
// -faults — against HEFT, re-planning HEFT and MCT across a fault-rate sweep
// (the resilience benchmark).
//
// Usage:
//
//	readys-eval -kind cholesky -T 8 -cpus 2 -gpus 2 -models models
//	readys-eval -kind cholesky -train-T 8 -T 12 -cpus 4 -gpus 0   # transfer
//	readys-eval -kind cholesky -T 8 -faults -rates 0,0.5,1,2      # resilience
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"readys/internal/exp"
	"readys/internal/taskgraph"
)

func parseFloats(raw string) ([]float64, error) {
	var out []float64
	for _, s := range strings.Split(raw, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	var (
		kindStr = flag.String("kind", "cholesky", "DAG family: cholesky, lu or qr")
		tiles   = flag.Int("T", 8, "tile count of the evaluation DAG")
		trainT  = flag.Int("train-T", 0, "tile count the agent was trained on (default: same as -T)")
		cpus    = flag.Int("cpus", 2, "number of CPUs")
		gpus    = flag.Int("gpus", 2, "number of GPUs")
		models  = flag.String("models", exp.DefaultModelsDir(), "model directory")
		runs    = flag.Int("runs", exp.EvalRuns, "runs per σ point")
		seed    = flag.Int64("seed", 42, "evaluation seed")
		sigmas  = flag.String("sigmas", "", "comma-separated σ values (default: the standard sweep)")
		faults  = flag.Bool("faults", false, "run the resilience benchmark (fault-rate sweep) instead of the σ sweep")
		rates   = flag.String("rates", "", "comma-separated fault rates for -faults (default: 0,0.5,1,2)")
		sigma   = flag.Float64("sigma", 0.1, "duration noise during the -faults sweep")
		csv     = flag.Bool("csv", false, "emit CSV instead of an aligned table")
	)
	flag.Parse()
	if err := exp.CheckCount("-runs", *runs, 1); err != nil {
		log.Fatal(err)
	}

	kind, err := taskgraph.KindFromString(*kindStr)
	if err != nil {
		log.Fatal(err)
	}
	tt := *trainT
	if tt == 0 {
		tt = *tiles
	}
	for _, T := range []int{*tiles, tt} {
		if err := exp.CheckProblem(T, *cpus, *gpus, *sigma); err != nil {
			log.Fatal(err)
		}
	}
	spec := exp.DefaultAgentSpec(kind, tt, *cpus, *gpus)
	agent, err := exp.LoadAgent(spec, *models)
	if err != nil {
		log.Fatal(err)
	}

	var tab *exp.Table
	if *faults {
		sweep := exp.FaultRates
		if *rates != "" {
			if sweep, err = parseFloats(*rates); err != nil {
				log.Fatal(err)
			}
		}
		for _, r := range sweep {
			if err := exp.CheckFaultRate(r); err != nil {
				log.Fatal(err)
			}
		}
		pts, err := exp.ResilienceSweep(agent, kind, *tiles, *cpus, *gpus, *sigma, sweep, *runs, *seed)
		if err != nil {
			log.Fatal(err)
		}
		tab = exp.ResilienceTable(pts, kind, *tiles, *cpus, *gpus, *sigma)
	} else {
		sweep := exp.Sigmas
		if *sigmas != "" {
			if sweep, err = parseFloats(*sigmas); err != nil {
				log.Fatal(err)
			}
		}
		for _, s := range sweep {
			if err := exp.CheckProblem(*tiles, *cpus, *gpus, s); err != nil {
				log.Fatal(err)
			}
		}
		tab = &exp.Table{
			Title:  fmt.Sprintf("READYS (trained T=%d) vs HEFT/MCT on %s T=%d, %dCPU+%dGPU", tt, kind, *tiles, *cpus, *gpus),
			Header: []string{"sigma", "readys_ms", "heft_ms", "mct_ms", "improve_vs_heft", "improve_vs_mct"},
		}
		pts, err := exp.Compare(agent, kind, *tiles, *cpus, *gpus, sweep, *runs, *seed)
		if err != nil {
			log.Fatal(err)
		}
		for _, pt := range pts {
			tab.AddRow(exp.F(pt.Sigma), exp.F(pt.READYS.Mean), exp.F(pt.HEFT.Mean), exp.F(pt.MCT.Mean),
				exp.F(pt.ImproveHEFT), exp.F(pt.ImproveMCT))
		}
	}
	if *csv {
		fmt.Fprint(os.Stdout, tab.CSV())
	} else {
		fmt.Fprint(os.Stdout, tab.Text())
	}
}
