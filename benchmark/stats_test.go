package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {99, 10}, {10, 1}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
}

func TestMedian(t *testing.T) {
	in := []float64{5, 1, 3}
	if got := median(in); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if in[0] != 5 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

// The tail percentile must leave at least ten samples beyond it.
func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{3771, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {130, 90}, {100, 90}, {99, 75}, {40, 75}, {5, 75}} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if beyond := float64(c.n) * (100 - got) / 100; beyond < 10 && got != 75 {
			t.Errorf("n=%d: p%v leaves %.1f samples beyond it", c.n, got, beyond)
		}
	}
}

// A burst that spoils a minority of rounds must not move the reported value.
func TestMedianOfRoundsIgnoresAMinorityOfBadRounds(t *testing.T) {
	quiet := roundStats{ops: 100, wallS: 1, p50Ms: 2, tailMs: 5}
	noisy := roundStats{ops: 100, wallS: 3, p50Ms: 9, tailMs: 50}
	got := medianOfRounds([]roundStats{quiet, noisy, quiet, quiet, noisy, quiet, noisy})
	if want := (timed{100, 2, 5}); got != want {
		t.Errorf("got %+v, want the quiet round's %+v", got, want)
	}
}

// The calibration marker reports the median sample and max ÷ min.
func TestHostCalibSummary(t *testing.T) {
	h := hostCalib{ms: []float64{0.5, 1.0, 0.6}}
	if med, spread := h.summary(); med != 0.6 || spread != 2 {
		t.Errorf("got median %v, max/min %v", med, spread)
	}
	var none hostCalib
	if med, spread := none.summary(); med != 0 || spread != 0 {
		t.Errorf("no samples: got %v %v", med, spread)
	}
	none.sample()
	if len(none.ms) != 1 || !(none.ms[0] > 0) {
		t.Errorf("sample recorded %v", none.ms)
	}
}

func TestSummariseRound(t *testing.T) {
	lat := make([]float64, 200)
	for i := range lat {
		lat[i] = float64(200 - i) // unsorted on purpose
	}
	r := summariseRound(lat, 4, 99)
	if r.ops != 200 || r.p50Ms != 100 || r.tailPct != 95 || r.tailMs != 190 {
		t.Errorf("got %+v", r)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which the
// driver uses; the expected values below come from it.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{12, 15, 11, 19, 14, 13, 18, 16, 17, 10}
	q1, q2, q3 := quartiles(xs)
	if q1 != 11.75 || q2 != 14.5 || q3 != 17.25 {
		t.Errorf("ten values: got %v %v %v, want 11.75 14.5 17.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("five values: got %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
	if got := spread(xs); math.Abs(got-5.5/14.5) > 1e-12 {
		t.Errorf("spread = %v", got)
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 90, true); got != 0.1 {
		t.Errorf("higher-is-better drop: %v", got)
	}
	if got := worseBy(100, 110, false); got != 0.1 {
		t.Errorf("lower-is-better rise: %v", got)
	}
	if got := worseBy(100, 110, true); got >= 0 {
		t.Errorf("an improvement must be negative, got %v", got)
	}
}

// Self time is the span minus what its direct children cover, overlapping
// children counted once, grandchildren not at all.
func TestSpanSelfTime(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	spans := []span{
		{name: "client.request", req: 1, start: us(0), end: us(100)},
		{name: "gateway.handler", parent: "client.request", req: 1, start: us(10), end: us(90)},
		{name: "serve.handler", parent: "gateway.handler", req: 1, start: us(20), end: us(80)},
		{name: "serve.rollout", parent: "serve.handler", req: 1, start: us(30), end: us(80)},
		// A second request, whose two children overlap by 10 µs.
		{name: "client.request", req: 2, start: us(200), end: us(300)},
		{name: "a", parent: "client.request", req: 2, start: us(210), end: us(250)},
		{name: "a", parent: "client.request", req: 2, start: us(240), end: us(280)},
	}
	self := selfTimes(spans)
	want := map[string]float64{
		"client.request":  (20 + 30) / 2.0, // 100-80 and 100-70
		"gateway.handler": 20,
		"serve.handler":   10,
		"serve.rollout":   50,
		"a":               40,
	}
	for name, w := range want {
		if got := self[name]; math.Abs(got-w) > 1e-9 {
			t.Errorf("self time of %s = %v µs, want %v", name, got, w)
		}
	}
	// Along one request the self times add up to the root span.
	if sum := 20 + self["gateway.handler"] + self["serve.handler"] + self["serve.rollout"]; sum != 100 {
		t.Errorf("self times of request 1 add up to %v µs, want 100", sum)
	}
}

func TestElapsedMS(t *testing.T) {
	ms, ok := elapsedMS([]byte(`{"model":"m","elapsed_ms":0.8125,"placements":[]}`))
	if !ok || ms != 0.8125 {
		t.Errorf("got %v %v", ms, ok)
	}
	if _, ok := elapsedMS([]byte(`{"error":"x"}`)); ok {
		t.Error("found elapsed_ms in an error body")
	}
}

func TestMixSeedIsStableAndNonNegative(t *testing.T) {
	seen := make(map[int64]bool)
	for seed := int64(1); seed <= 3; seed++ {
		for r := int64(-2); r < 3; r++ {
			for i := int64(0); i < 50; i++ {
				s := mixSeed(seed, r, i)
				if s < 0 {
					t.Fatalf("mixSeed(%d,%d,%d) = %d is negative", seed, r, i, s)
				}
				if seen[s] {
					t.Fatalf("mixSeed(%d,%d,%d) repeats %d", seed, r, i, s)
				}
				seen[s] = true
			}
		}
	}
	if mixSeed(1, 2, 3) != mixSeed(1, 2, 3) {
		t.Error("mixSeed is not a function of its arguments")
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// BENCHMARK.json and the program must name the same workloads and metrics,
// with the same units, directions and bounds.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, file, prog []metricDef) {
		if len(file) != len(prog) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(file), len(prog))
		}
		for i := range prog {
			if file[i] != prog[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, file[i], prog[i])
			}
		}
	}
	compare("end_to_end", f.EndToEnd, endToEnd)
	compare("per_layer", f.PerLayer, perLayer)
	if f.EndToEnd[0].Name != "setup_s" {
		t.Error("setup_s must be an end-to-end metric")
	}
	// Only setup_s, which cannot be demoted, may have a bound above 0.10.
	for _, d := range endToEnd[1:] {
		if d.Bound <= 0 || d.Bound > 0.10 {
			t.Errorf("%s: bound %v outside (0, 0.10]", d.Name, d.Bound)
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}
}

// render must print exactly the metrics of the mode's list.
func TestRenderSchema(t *testing.T) {
	o := newOutcome(runConfig{})
	o.attempted = 10
	for _, d := range endToEnd {
		o.metrics[d.Name] = 1.5
	}
	line, err := render(o, false)
	if err != nil {
		t.Fatal(err)
	}
	if !line.Correct || len(line.Metrics) != len(endToEnd) {
		t.Errorf("got correct=%v with %d metrics", line.Correct, len(line.Metrics))
	}
	for _, d := range endToEnd {
		if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("%s: got %+v", d.Name, m)
		}
	}
	delete(o.metrics, "alloc_kb_per_op")
	if _, err := render(o, false); err == nil {
		t.Error("a missing end-to-end metric must be an error")
	}
	line, err = render(o, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(line.Metrics) != len(perLayer) {
		t.Errorf("traced run printed %d metrics, want %d", len(line.Metrics), len(perLayer))
	}
	o.failed = 1
	if line, _ := render(o, true); line.Correct {
		t.Error("a failed op must make the run not correct")
	}
	o.metrics["gateway.hop_us"] = math.NaN()
	if _, err := render(o, true); err == nil {
		t.Error("NaN must be refused")
	}
}
