package obs

import (
	"encoding/json"
	"fmt"
)

// MergeTraces joins Chrome trace exports from several processes into one
// loadable document. Every exporter in this repository records under its own
// local pid namespace (sim and every serving replica use pid 1), so a naive
// concatenation would interleave unrelated lanes. Merge assigns each
// (input document, local pid) pair a fresh global pid in order of first
// appearance, rewrites naming metadata and events accordingly, and emits all
// metadata first followed by each document's events in record order — lanes
// stay disjoint, so what held per lane holds after the merge. Span identity in Args (trace_id / span_id / parent_span_id) is
// untouched: that is what stitches the processes together logically, and what
// ValidateTraceLinks resolves afterwards.
func MergeTraces(docs ...[]byte) ([]byte, error) {
	if len(docs) == 0 {
		return nil, fmt.Errorf("obs: MergeTraces needs at least one trace document")
	}
	type lane struct {
		doc int
		pid int64
	}
	remap := make(map[lane]int64)
	var nextPID int64 = 1
	mapPID := func(doc int, pid int64) int64 {
		key := lane{doc, pid}
		if g, ok := remap[key]; ok {
			return g
		}
		g := nextPID
		nextPID++
		remap[key] = g
		return g
	}

	parsed := make([]chromeTrace, len(docs))
	var droppedTotal float64
	for i, data := range docs {
		if err := json.Unmarshal(data, &parsed[i]); err != nil {
			return nil, fmt.Errorf("obs: merge input %d is not a valid trace: %w", i, err)
		}
		if len(parsed[i].TraceEvents) == 0 {
			return nil, fmt.Errorf("obs: merge input %d has no events", i)
		}
		if d, ok := parsed[i].OtherData["dropped_events"].(float64); ok {
			droppedTotal += d
		}
	}

	// Pass 1: metadata, in document order, establishing the pid remap so
	// process naming appears before any event on the lane.
	var out []Event
	for i := range parsed {
		for _, e := range parsed[i].TraceEvents {
			if e.Ph != PhaseMetadata {
				continue
			}
			e.PID = mapPID(i, e.PID)
			out = append(out, e)
		}
	}
	// Pass 2: events, per document in record order.
	for i := range parsed {
		for _, e := range parsed[i].TraceEvents {
			if e.Ph == PhaseMetadata {
				continue
			}
			e.PID = mapPID(i, e.PID)
			out = append(out, e)
		}
	}

	merged := chromeTrace{
		TraceEvents:     out,
		DisplayTimeUnit: "ms",
		OtherData:       map[string]any{"merged_from": len(docs)},
	}
	if droppedTotal > 0 {
		merged.OtherData["dropped_events"] = droppedTotal
	}
	return json.Marshal(merged)
}
