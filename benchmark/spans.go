package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public API, recorded by the benchmark
// around the call (the program itself is not edited). Spans of one request
// share req; parent names the span that caused this one ("" for a root).
type span struct {
	layer  string // module name: gateway, serve, core, sim, ...
	name   string
	req    int64
	parent string
	start  time.Duration // since the recorder's epoch
	end    time.Duration
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so call sites need no "is tracing on" branch.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(layer, name, parent string, req int64, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{layer: layer, name: name, req: req, parent: parent,
		start: start.Sub(r.epoch), end: end.Sub(r.epoch)}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// selfTimes returns, per span name, the mean self time in microseconds: the
// span's duration minus the part of its interval that its direct children
// (spans of the same request naming it as parent) cover. Overlapping children
// are merged before subtracting, so parallel children are not counted twice.
func selfTimes(spans []span) map[string]float64 {
	type key struct {
		req  int64
		name string
	}
	children := make(map[key][]span)
	for _, s := range spans {
		if s.parent != "" {
			k := key{s.req, s.parent}
			children[k] = append(children[k], s)
		}
	}
	sum := make(map[string]float64)
	count := make(map[string]int)
	for _, s := range spans {
		self := s.end - s.start - covered(children[key{s.req, s.name}], s.start, s.end)
		sum[s.name] += float64(self) / float64(time.Microsecond)
		count[s.name]++
	}
	for name := range sum {
		sum[name] /= float64(count[name])
	}
	return sum
}

// covered is the length of the union of the children's intervals clipped to
// [lo, hi].
func covered(children []span, lo, hi time.Duration) time.Duration {
	if len(children) == 0 {
		return 0
	}
	cs := append([]span(nil), children...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var total time.Duration
	cur := lo
	for _, c := range cs {
		s, e := c.start, c.end
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// chromeEvent is one "X" (complete) event of the Chrome trace-event format;
// load the file in chrome://tracing or ui.perfetto.dev.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans to path, one lane (tid) per request.
func (r *recorder) writeChromeTrace(path string) error {
	r.mu.Lock()
	events := make([]chromeEvent, 0, len(r.spans))
	for _, s := range r.spans {
		ev := chromeEvent{
			Name: s.name, Cat: s.layer, Ph: "X", PID: 1, TID: s.req,
			TS:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
		}
		if s.parent != "" {
			ev.Args = map[string]any{"parent": s.parent}
		}
		events = append(events, ev)
	}
	r.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
