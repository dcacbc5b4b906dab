// readys-sim runs a single scheduling episode of any scheduler on any problem
// and reports the makespan, per-resource utilisation, the per-kernel
// CPU/GPU placement split and the realised critical chain. The schedule can
// be exported as Chrome trace-event JSON, one lane per resource.
//
// Usage:
//
//	readys-sim -kind cholesky -T 8 -cpus 2 -gpus 2 -policy mct -sigma 0.3
//	readys-sim -policy readys -models models -trace trace.json
//	readys-sim -policy heft -fault-rate 1        # with injected faults
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"readys/internal/core"
	"readys/internal/exp"
	"readys/internal/obs"
	"readys/internal/platform"
	"readys/internal/sched"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

func main() {
	var (
		kindStr   = flag.String("kind", "cholesky", "DAG family: cholesky, lu or qr")
		tiles     = flag.Int("T", 8, "problem size")
		cpus      = flag.Int("cpus", 2, "number of CPUs")
		gpus      = flag.Int("gpus", 2, "number of GPUs")
		sigma     = flag.Float64("sigma", 0.2, "duration noise level σ")
		policy    = flag.String("policy", "mct", "scheduler: readys, heft, replan-heft, mct, fifo")
		models    = flag.String("models", exp.DefaultModelsDir(), "model directory (for -policy readys)")
		seed      = flag.Int64("seed", 1, "simulation seed")
		tracePath = flag.String("trace", "", "write the schedule as Chrome trace-event JSON to this path (load in chrome://tracing or ui.perfetto.dev)")
		faultRate = flag.Float64("fault-rate", 0, "inject faults (outages, deaths, degradation) at this rate from a seed-derived plan (events of each kind per resource, see sim.SpecForRate; 0 = fault-free)")
	)
	flag.Parse()

	kind, err := taskgraph.KindFromString(*kindStr)
	if err != nil {
		log.Fatal(err)
	}
	if err := exp.CheckProblem(*tiles, *cpus, *gpus, *sigma); err != nil {
		log.Fatal(err)
	}
	if err := exp.CheckFaultRate(*faultRate); err != nil {
		log.Fatal(err)
	}
	g := taskgraph.NewByKind(kind, *tiles)
	plat := platform.New(*cpus, *gpus)
	tt := platform.TimingFor(kind)

	var pol sim.Policy
	switch *policy {
	case "readys":
		spec := exp.DefaultAgentSpec(kind, *tiles, *cpus, *gpus)
		agent, err := exp.LoadAgent(spec, *models)
		if err != nil {
			log.Fatal(err)
		}
		pol = core.NewPolicy(agent)
	case "heft":
		pol = sched.NewStaticPolicy(sched.HEFT(g, plat, tt))
	case "replan-heft":
		pol = sched.NewReplanHEFTPolicy()
	case "mct":
		pol = sched.MCTPolicy{}
	case "fifo":
		pol = sched.FIFOPolicy{}
	default:
		log.Fatalf("unknown policy %q", *policy)
	}

	opts := sim.Options{Sigma: *sigma, Rng: rand.New(rand.NewSource(*seed))}
	if *faultRate > 0 {
		horizon := core.FaultHorizonFactor * sched.HEFT(g, plat, tt).Makespan
		opts.Faults = sim.GeneratePlan(sim.PlanSeed(*seed), plat.Size(), sim.SpecForRate(*faultRate, horizon))
	}
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer(0)
		opts.Tracer = tracer
	}
	res, err := sim.Simulate(g, plat, tt, pol, opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := sim.ValidateResultStrict(g, res, sim.CheckOptions{
		Platform: plat, Timing: tt, Sigma: *sigma, Faults: opts.Faults,
	}); err != nil {
		log.Fatalf("schedule invalid: %v", err)
	}

	st := sim.Analyze(g, plat, res)
	fmt.Printf("%s T=%d (%d tasks) on %s, σ=%.2f, policy=%s\n",
		kind, *tiles, g.NumTasks(), plat, *sigma, *policy)
	fmt.Printf("makespan        %.1f ms   (%d decisions, %d idle)\n", res.Makespan, res.Decisions, res.IdleDecisions)
	fmt.Printf("mean utilisation %.1f%%\n", 100*st.MeanUtilisation)
	for r := range st.BusyTime {
		fmt.Printf("  %s %d: busy %.1f ms (%.0f%%)\n",
			plat.Resources[r].Type, r, st.BusyTime[r], 100*st.BusyTime[r]/res.Makespan)
	}
	fmt.Println("kernel placement (CPU / GPU):")
	for k := 0; k < taskgraph.NumKernels; k++ {
		fmt.Printf("  %-9s %3d / %3d  (%.0f%% on GPU)\n", g.KernelNames[k],
			st.KernelPlacement[k][platform.CPU], st.KernelPlacement[k][platform.GPU],
			100*st.GPUShare(taskgraph.Kernel(k)))
	}
	fmt.Printf("critical chain: %d tasks\n", len(st.CriticalChain))
	if opts.Faults != nil {
		var outages, deaths, degrades int
		for _, e := range opts.Faults.Events {
			switch e.Kind {
			case sim.FaultOutage:
				outages++
			case sim.FaultDeath:
				deaths++
			case sim.FaultDegrade:
				degrades++
			}
		}
		fmt.Printf("faults: %d outages, %d deaths, %d degrades planned; %d task attempts killed\n",
			outages, deaths, degrades, len(res.Kills))
		for _, k := range res.Kills {
			fmt.Printf("  killed %s on %s %d at %.1f ms (ran %.1f ms, cause %s)\n",
				g.Tasks[k.Task].Name, plat.Resources[k.Resource].Type, k.Resource, k.At, k.At-k.Start, k.Cause)
		}
	}

	if tracer != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := tracer.WriteChromeTrace(f); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", *tracePath)
	}
}
