package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
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
	tr.Complete("a", "cat", 1, 0, 10, 10, []Attr{Int(KeyTask, 1)})
	tr.Instant("b", "cat", 1, 0, 20, Float(KeyFactor, 0.5))
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
	if tr.dropped == 0 {
		t.Fatal("dropped count not recorded")
	}
	ev := tr.Events()
	if ev[0].TS >= ev[len(ev)-1].TS {
		t.Fatalf("ring order wrong: %+v", ev)
	}

	// Past capacity, the ring overwrites its oldest records: a slice is one
	// record, recorded when it ends, so the export is the newest four events
	// whole, oldest first, and the wrapped trace still validates.
	tr = NewTracer(4)
	tr.Complete("a", "", 1, 0, 1, 1, nil)
	tr.Complete("c", "", 1, 1, 1, 4, nil)
	tr.Instant("kill", "", 1, 1, 5)
	tr.Complete("b", "", 1, 0, 3, 1, nil)
	tr.Complete("d", "", 1, 1, 6, 1, nil)
	tr.Instant("late", "", 1, 0, 7)
	buf.Reset()
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("wrapped trace invalid: %v\n%s", err, buf.String())
	}
	var names []string
	for _, e := range tr.Events() {
		names = append(names, e.Name+":"+e.Ph)
	}
	if got, want := strings.Join(names, " "), "kill:i b:X d:X late:i"; got != want || tr.dropped != 2 {
		t.Fatalf("wrapped export = %s with %d dropped, want %s with 2", got, tr.dropped, want)
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	cases := map[string]string{
		"not json":   `{`,
		"empty":      `{"traceEvents":[]}`,
		"negative X": `{"traceEvents":[{"name":"a","ph":"X","ts":1,"dur":-1,"pid":1,"tid":1}]}`,
		"unknown":    `{"traceEvents":[{"name":"a","ph":"Q","ts":1,"pid":1,"tid":1}]}`,
	}
	for name, data := range cases {
		if err := ValidateChromeTrace([]byte(data)); err == nil {
			t.Errorf("%s: validation passed, want error", name)
		}
	}
	// A balanced B/E pair is refused by its phase, which the error names.
	pair := `{"traceEvents":[
		{"name":"a","ph":"B","ts":1,"pid":1,"tid":1},
		{"name":"a","ph":"E","ts":2,"pid":1,"tid":1}]}`
	if err := ValidateChromeTrace([]byte(pair)); err == nil || !strings.Contains(err.Error(), "phase B") {
		t.Errorf("a B/E pair gave %v, want an error naming phase B", err)
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

// failingWriter is a ResponseWriter whose client has gone: every body write
// fails.
type failingWriter struct{ header http.Header }

func (w *failingWriter) Header() http.Header       { return w.header }
func (w *failingWriter) WriteHeader(int)           {}
func (w *failingWriter) Write([]byte) (int, error) { return 0, errors.New("connection reset") }

// countNothing is a RequestCounter that counts nothing.
type countNothing struct{}

func (countNothing) BeginRequest(string)                   {}
func (countNothing) EndRequest(string, time.Duration, int) {}

// TestFrontLogsFailedMetricsWrite: a /metrics scrape whose client has gone
// makes Registry.WriteText return the write error, and the front logs it
// under its name instead of failing silently; a scrape by POST answers 405.
func TestFrontLogsFailedMetricsWrite(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("readys_things_total", "things that happened").Inc()
	var logged bytes.Buffer
	f := NewFront("serve", 1, NewTracer(16), reg, countNothing{}, log.New(&logged, "", 0))
	mux := http.NewServeMux()
	f.Mount(mux)
	mux.ServeHTTP(&failingWriter{header: http.Header{}}, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if got, want := logged.String(), "serve: writing metrics: connection reset\n"; got != want {
		t.Fatalf("logged %q, want %q", got, want)
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/metrics", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics answered %d, want 405", rec.Code)
	}
}
