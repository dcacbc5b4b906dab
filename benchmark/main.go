// Command benchmark is the one instrument every performance or simplicity
// change to this repository is judged with. It drives four workloads through
// the whole scheduling path — client → gateway hop → replica queue → model
// lease → encode → GCN forward → simulator → JSON out, the stream engine and
// the A2C trainer — in one process, checks every output, and prints every
// metric by name and unit. Layers are measured from outside, by timing calls
// into their public functions; nothing under internal/ or cmd/ is edited.
//
//	bash benchmark/run.sh --workload serve_gw_t4 --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -aa 10        # A/A table: which metrics repeat?
//
// README.md in this directory explains workloads, metrics and how to read
// the trace files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart anchors setup_s: package variables initialise before main.
var processStart = time.Now()

// metricDef names one metric, as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func (d metricDef) higherIsBetter() bool { return d.Better == "higher" }

// endToEnd are the metrics a later change is held to; every workload reports
// all of them on a run with tracing off. A bound is kept only while the A/A
// mode shows the metric repeating within it (AA.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"alloc_kb_per_op", "kB", "lower", 0.02},
	{"peak_live_heap_mb", "MB", "lower", 0.05},
}

// demoted are what a caller of the scheduler sees first, speed and plan
// quality, and they were meant to be end-to-end metrics with bounds of 0.10
// and 0.005. They do not repeat within those bounds: the 2-vCPU hosts this is
// judged on change speed by a third for minutes at a time, and training
// quality moves by 1 % with the seed (AA.md). Rather than widen the bounds they
// are reported without one, as the first per-layer metrics; a run with
// tracing off still measures and prints them.
var demoted = []metricDef{
	{"ops_per_s", "1/s", "higher", 0},
	{"latency_p50_ms", "ms", "lower", 0},
	{"latency_tail_ms", "ms", "lower", 0},
	{"quality_vs_heft", "ratio", "higher", 0},
}

// perLayer are the metrics of a traced run: the demoted ones, taken from the
// traced pass's untraced rounds, then the single-layer probes; the prefix is
// the module (internal/<prefix>) the timed call belongs to. A layer that is
// not on a workload's path reports 0 there.
var perLayer = append(append([]metricDef(nil), demoted...), []metricDef{
	{"gateway.hop_us", "us", "lower", 0},
	{"gateway.route_us", "us", "lower", 0},
	{"gateway.failovers", "count", "lower", 0},
	{"gateway.replica_split", "ratio", "lower", 0},
	{"serve.handler_us", "us", "lower", 0},
	{"serve.transport_us", "us", "lower", 0},
	{"serve.decode_gen_us", "us", "lower", 0},
	{"serve.decode_dag_us", "us", "lower", 0},
	{"serve.encode_us", "us", "lower", 0},
	{"serve.acquire_warm_us", "us", "lower", 0},
	{"serve.acquire_cold_ms", "ms", "lower", 0},
	{"serve.registry_hit_share", "ratio", "higher", 0},
	{"serve.pool_handoff_us", "us", "lower", 0},
	{"serve.rejected", "count", "lower", 0},
	{"serve.rollout_share", "ratio", "higher", 0},
	{"core.decide_us", "us", "lower", 0},
	{"core.decide_p95_us", "us", "lower", 0},
	{"core.decides_per_op", "count", "lower", 0},
	{"core.decide_share", "ratio", "lower", 0},
	{"core.idle_share", "ratio", "lower", 0},
	{"core.window_rows", "count", "lower", 0},
	{"core.encode_rebuild_us", "us", "lower", 0},
	{"core.forward_tape_us", "us", "lower", 0},
	{"nn.adjacency_us", "us", "lower", 0},
	{"nn.adam_step_us", "us", "lower", 0},
	{"tensor.spmm_ns", "ns", "lower", 0},
	{"tensor.matmul_ns", "ns", "lower", 0},
	{"tensor.spmm_flops", "count", "lower", 0},
	{"tensor.spmm_bytes", "B", "lower", 0},
	{"sim.loop_us_per_task", "us", "lower", 0},
	{"sim.mct_rollout_us", "us", "lower", 0},
	{"sim.validate_us", "us", "lower", 0},
	{"sim.addjob_us_q1", "us", "lower", 0},
	{"sim.addjob_us_q4", "us", "lower", 0},
	{"sched.heft_us", "us", "lower", 0},
	{"stream.decide_us_q1", "us", "lower", 0},
	{"stream.decide_us_q4", "us", "lower", 0},
	{"stream.decide_growth", "ratio", "lower", 0},
	{"stream.slow_decide_share", "ratio", "lower", 0},
	{"stream.decisions_per_job", "count", "lower", 0},
	{"stream.heft_per_job_jobs_per_s", "1/s", "higher", 0},
	{"stream.validate_ms", "ms", "lower", 0},
	{"stream.generate_ms", "ms", "lower", 0},
	{"taskgraph.build_us", "us", "lower", 0},
	{"taskgraph.descfeat_us", "us", "lower", 0},
	{"taskgraph.descfeat_union_ms", "ms", "lower", 0},
	{"taskgraph.topo_us", "us", "lower", 0},
	{"rl.rollout_ms", "ms", "lower", 0},
	{"rl.update_ms", "ms", "lower", 0},
	{"rl.rollout_share", "ratio", "lower", 0},
	{"rl.workers_speedup", "ratio", "higher", 0},
	{"obs.span_ns", "ns", "lower", 0},
	{"obs.observe_ns", "ns", "lower", 0},
	{"proc.cpu_ms_per_op", "ms", "lower", 0},
	{"proc.mallocs_per_op", "count", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.goroutines_peak", "count", "lower", 0},
	{"host.calib_ms", "ms", "lower", 0},
	{"host.calib_spread", "ratio", "lower", 0},
	{"span.client_self_us", "us", "lower", 0},
	{"span.gateway_self_us", "us", "lower", 0},
	{"span.serve_self_us", "us", "lower", 0},
	{"span.rollout_us", "us", "lower", 0},
	{"trace.spans", "count", "lower", 0},
	{"trace.accounted_share", "ratio", "higher", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
}...)

// runConfig is one invocation's input.
type runConfig struct {
	root    string // repository root: models/ is read from here
	outDir  string // where trace_<workload>.json goes
	seed    int64
	seconds int
	trace   bool
	smoke   bool // tiny op counts, for the harness's own test
	ports   [][2]int
	host    *hostCalib // the workload samples it between rounds
}

func (c runConfig) modelsDir() string { return filepath.Join(c.root, "models") }

// outcome is what a workload hands back: counts, named values and, when an
// output check failed, why.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]float64
	notes     []string
	smoke     bool
}

func newOutcome(cfg runConfig) *outcome {
	return &outcome{metrics: make(map[string]float64), smoke: cfg.smoke}
}

// reps is how many calls a micro-probe times per batch: n, or a twentieth of
// it on a smoke run.
func (o *outcome) reps(n int) int {
	if !o.smoke {
		return n
	}
	if n /= 20; n < 2 {
		n = 2
	}
	return n
}

func (o *outcome) problemf(format string, args ...any) {
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workload is one set of inputs the benchmark runs; Why is the line
// BENCHMARK.json records for it.
type workload struct {
	Name string
	Why  string
	run  func(cfg runConfig) (*outcome, error)
}

var workloads = []workload{
	{"serve_gw_t4", "gateway over 2 replicas on fixed ports 18474/18475, 2 closed-loop clients, T=4 generated and explicit-DAG bodies: the only workload where HTTP, JSON, registry and pool are a large share", runServeGateway},
	{"serve_direct_t8", "one replica, 1 closed-loop client, T=8 generated DAGs of 120-200 tasks: decide, kernels and simulator do nearly all the work, so an HTTP or codec change must predict no change here", runServeDirect},
	{"stream_1k", "stream.Run of 1000 Poisson jobs on a persistent cluster with the committed stream checkpoint: per-decision cost grows with history, which no single-DAG workload can show", runStream},
	{"train_a2c_t6", "A2C training on Cholesky T=6 with 2 rollout workers: drives the same agent through the autograd tape (forward, backward, Adam) instead of the serving engine", runTrain},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// demotedPrefix opens the line a run with tracing off prints with the demoted
// metrics as JSON.
const demotedPrefix = "demoted"

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render turns an outcome into the result line: every metric of the mode's
// list, by name, with its unit. A missing end-to-end metric is a bug in the
// workload and fails the run; a per-layer metric the workload does not have
// reads 0.
func render(o *outcome, trace bool) (resultLine, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	line := resultLine{
		Correct:   len(o.problems) == 0 && o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !ok && !trace {
			return line, fmt.Errorf("workload did not report %s", d.Name)
		}
		if v != v || v > 1e300 || v < -1e300 {
			return line, fmt.Errorf("%s is not a finite number: %v", d.Name, v)
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return line, nil
}

// gitRevision reads HEAD from root/.git without starting a process. The
// driver's checkout is not a repository; it then reads "unknown".
func gitRevision(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	ref, isRef := strings.CutPrefix(s, "ref: ")
	if !isRef {
		return s
	}
	if data, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(data))
	}
	if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, l := range strings.Split(string(packed), "\n") {
			if rev, ok := strings.CutSuffix(l, " "+ref); ok {
				return rev
			}
		}
	}
	return "unknown"
}

func parsePorts(s string) ([][2]int, error) {
	if s == "" {
		return replicaPortPairs, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return nil, fmt.Errorf("-replica-ports wants two ports, got %q", s)
	}
	var pair [2]int
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 || n > 65535 {
			return nil, fmt.Errorf("-replica-ports: bad port %q", p)
		}
		pair[i] = n
	}
	return [][2]int{pair}, nil
}

// runOne runs one workload and prints its report; the result line goes last.
func runOne(w workload, cfg runConfig) error {
	// nproc is 2 where this benchmark is judged: more load threads than
	// cores would measure the scheduler of the host, not of READYS.
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	fmt.Printf("benchmark %s seed=%d seconds=%d trace=%v\n", w.Name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("env num_cpu=%d gomaxprocs=%d go=%s rev=%s\n", runtime.NumCPU(), procs, runtime.Version(), gitRevision(cfg.root))

	cfg.host = &hostCalib{}
	o, err := w.run(cfg)
	if err != nil {
		return err
	}
	calibMs, calibSpread := cfg.host.summary()
	o.metrics["host.calib_ms"], o.metrics["host.calib_spread"] = calibMs, calibSpread
	o.notef("host calibration: %d samples between rounds, median %.3f ms, max/min %.2f", len(cfg.host.ms), calibMs, calibSpread)
	line, err := render(o, cfg.trace)
	if err != nil {
		return err
	}
	for _, n := range o.notes {
		fmt.Println("note", n)
	}
	for _, p := range o.problems {
		fmt.Println("PROBLEM", p)
	}
	names := make([]string, 0, len(line.Metrics))
	for name := range line.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := line.Metrics[name]
		fmt.Printf("%-34s %16.6g %s\n", name, m.Value, m.Unit)
	}
	if !cfg.trace {
		// Measured over the same rounds, not held to a bound; the A/A mode
		// reads this line.
		extra := make(map[string]float64, len(demoted))
		for _, d := range demoted {
			extra[d.Name] = o.metrics[d.Name]
			fmt.Printf("%-34s %16.6g %s (no bound)\n", d.Name, o.metrics[d.Name], d.Unit)
		}
		out, err := json.Marshal(extra)
		if err != nil {
			return err
		}
		fmt.Println(demotedPrefix, string(out))
	}
	fmt.Printf("ops attempted=%d failed=%d correct=%v\n", line.Attempted, line.Failed, line.Correct)
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: serve_gw_t4, serve_direct_t8, stream_1k or train_a2c_t6")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Int("seconds", 20, "nominal length of the measured phase; op counts are a fixed function of it, so the same value measures the same work on every machine")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		root    = flag.String("root", "", "repository root, which holds models/ (default: the working directory, or its parent when run from benchmark/)")
		outDir  = flag.String("out", "", "directory for trace_<workload>.json (default: benchmark/out under the root)")
		ports   = flag.String("replica-ports", "", "override the fixed replica port pair, as \"a,b\"; the run refuses a pair that changes the model-to-replica split")
		aa      = flag.Int("aa", 0, "A/A mode: run every workload (or just -workload) this many times with different seeds and print the spread table")
		smoke   = flag.Bool("smoke", false, "tiny op counts: exercises every workload and both passes in a few seconds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds < 1 || *seconds > 60 {
		fatalf("-seconds must be between 1 and 60")
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	pairs, err := parsePorts(*ports)
	if err != nil {
		fatalf("%v", err)
	}
	if *root == "" {
		*root = "."
		if _, err := os.Stat("models"); err != nil {
			*root = ".."
		}
	}
	if _, err := os.Stat(filepath.Join(*root, "models")); err != nil {
		fatalf("%s does not hold the repository (no models/ directory): run from the repository root or pass -root", *root)
	}
	if *outDir == "" {
		*outDir = filepath.Join(*root, "benchmark", "out")
	}
	cfg := runConfig{root: *root, outDir: *outDir, seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, ports: pairs}

	switch {
	case *aa > 0:
		if err := runAA(*aa, cfg, *name); err != nil {
			fatalf("%v", err)
		}
	case *smoke && *name == "":
		if err := runSmoke(cfg); err != nil {
			fatalf("%v", err)
		}
	default:
		w, ok := findWorkload(*name)
		if !ok {
			fatalf("unknown workload %q", *name)
		}
		if err := runOne(w, cfg); err != nil {
			fatalf("%s: %v", w.Name, err)
		}
	}
}

// runSmoke runs all four workloads, both passes, at tiny op counts.
func runSmoke(cfg runConfig) error {
	cfg.smoke = true
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg.trace = trace
			if err := runOne(w, cfg); err != nil {
				return fmt.Errorf("%s trace=%v: %w", w.Name, trace, err)
			}
		}
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}
