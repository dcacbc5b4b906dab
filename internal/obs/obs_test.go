package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestRegistryText(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("readys_things_total", "things that happened")
	c.Add(3)
	g := r.Gauge("readys_depth", "current depth")
	g.Set(-2)
	r.GaugeFunc("readys_computed", "computed at exposition", func() float64 { return 1.5 })
	h := r.Histogram("readys_lat_ms", "latency", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100)
	v := r.CounterVec("readys_reqs_total", "requests", "endpoint")
	v.With("b").Add(2)
	v.With("a").Inc()

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	wants := []string{
		"# TYPE readys_things_total counter",
		"readys_things_total 3",
		"readys_depth -2",
		"# TYPE readys_computed gauge",
		"readys_computed 1.5",
		"readys_lat_ms_bucket{le=\"1\"} 1",
		"readys_lat_ms_bucket{le=\"10\"} 2",
		"readys_lat_ms_bucket{le=\"+Inf\"} 3",
		"readys_lat_ms_sum 105.5",
		"readys_lat_ms_count 3",
		`readys_reqs_total{endpoint="a"} 1`,
		`readys_reqs_total{endpoint="b"} 2`,
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Sorted children: a before b.
	if strings.Index(out, `endpoint="a"`) > strings.Index(out, `endpoint="b"`) {
		t.Errorf("vec children not sorted:\n%s", out)
	}
}

func TestGaugeVecText(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("readys_replica_up", "replica health", "replica")
	v.With("http://a:1").Set(1)
	v.With("http://b:2").Set(0)
	v.With("http://a:1").Set(0) // overwrite, not accumulate

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE readys_replica_up gauge",
		`readys_replica_up{replica="http://a:1"} 0`,
		`readys_replica_up{replica="http://b:2"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if v.With("http://a:1") != v.With("http://a:1") {
		t.Fatal("same label values must return the same gauge")
	}
}

func TestRegistryReuseAndConcurrency(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x", "") != r.Counter("x", "") {
		t.Fatal("re-registering a counter must return the same instance")
	}
	v := r.CounterVec("y", "", "l")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				v.With("a").Inc()
				r.Counter("x", "").Inc()
			}
		}()
	}
	wg.Wait()
	if got := v.With("a").Value(); got != 800 {
		t.Fatalf("counter = %d, want 800", got)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(3)
	s := h.Snapshot()
	if s.Count != 3 || s.Sum != 5 {
		t.Fatalf("count=%d sum=%g", s.Count, s.Sum)
	}
	want := []uint64{1, 1, 1}
	for i, c := range s.Counts {
		if c != want[i] {
			t.Fatalf("counts = %v, want %v", s.Counts, want)
		}
	}
}

func TestTracerRingAndExport(t *testing.T) {
	tr := NewTracer(4)
	tr.NameProcess(1, "proc")
	tr.NameThread(1, 0, "lane0")
	tr.Begin("a", "cat", 1, 0, 10, map[string]any{"k": 1})
	tr.End("a", 1, 0, 20)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	// 2 metadata + 2 events.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("exported %d events, want 4", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Ph != PhaseMetadata {
		t.Fatalf("metadata must come first, got %+v", doc.TraceEvents[0])
	}

	// Overflow the ring: oldest events are dropped, count reported.
	for i := 0; i < 10; i++ {
		tr.Complete("x", "", 1, 0, float64(i), 1, nil)
	}
	if tr.Len() != 4 {
		t.Fatalf("ring holds %d, want 4", tr.Len())
	}
	if tr.Dropped() == 0 {
		t.Fatal("dropped count not recorded")
	}
	ev := tr.Events()
	if ev[0].TS >= ev[len(ev)-1].TS {
		t.Fatalf("ring order wrong: %+v", ev)
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	cases := map[string]string{
		"not json":     `{`,
		"empty":        `{"traceEvents":[]}`,
		"unbalanced B": `{"traceEvents":[{"name":"a","ph":"B","ts":1,"pid":1,"tid":1}]}`,
		"stray E":      `{"traceEvents":[{"name":"a","ph":"E","ts":1,"pid":1,"tid":1}]}`,
		"time travel": `{"traceEvents":[
			{"name":"a","ph":"B","ts":5,"pid":1,"tid":1},
			{"name":"a","ph":"E","ts":4,"pid":1,"tid":1}]}`,
		"mismatched nesting": `{"traceEvents":[
			{"name":"a","ph":"B","ts":1,"pid":1,"tid":1},
			{"name":"b","ph":"E","ts":2,"pid":1,"tid":1}]}`,
	}
	for name, data := range cases {
		if err := ValidateChromeTrace([]byte(data)); err == nil {
			t.Errorf("%s: validation passed, want error", name)
		}
	}
}

func TestJSONL(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	if err := j.Write(map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Write(map[string]int{"b": 2}); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	lines, err := DecodeJSONLines(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("decoded %d lines, want 2", len(lines))
	}
	if _, err := DecodeJSONLines([]byte("{\"ok\":1}\nnope\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
}
