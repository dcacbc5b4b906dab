package obs

import (
	"encoding/json"
	"fmt"
)

// ValidateChromeTrace checks that data is a loadable Chrome trace-event JSON
// document in the phases a Tracer writes: a JSON object with a non-empty
// traceEvents array of X events of non-negative duration, i and M events. A
// B/E pair is refused by its phase: every producer here records a slice as one
// X event when it ends. This is what the golden and property tests (and
// `readys-obs-check`) assert before anyone loads a trace into Perfetto.
func ValidateChromeTrace(data []byte) error {
	var doc chromeTrace
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("obs: trace is not valid JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("obs: trace has no events")
	}
	for i, e := range doc.TraceEvents {
		switch e.Ph {
		case PhaseComplete:
			if e.Dur < 0 {
				return fmt.Errorf("obs: event %d: X %q has negative duration %.3f", i, e.Name, e.Dur)
			}
		case PhaseInstant, PhaseMetadata:
			// Nothing positional to check.
		case "B", "E":
			return fmt.Errorf("obs: event %d (%q): phase %s is not accepted; record a slice as one X event", i, e.Name, e.Ph)
		default:
			return fmt.Errorf("obs: event %d: unknown phase %q", i, e.Ph)
		}
	}
	return nil
}

// ValidateTraceLinks checks the distributed-tracing layer of a (typically
// merged) Chrome trace: every span that names a parent_span_id must find a
// recorded span with that span_id in the same trace_id, and at least one
// parent link must resolve across process (pid) boundaries when spans from
// more than one process are present. Single-process exports legitimately
// contain dangling parents (the parent span lives in another process's ring),
// which is why this is separate from ValidateChromeTrace and only applied
// after MergeTraces.
func ValidateTraceLinks(data []byte) error {
	var doc chromeTrace
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("obs: trace is not valid JSON: %w", err)
	}
	argStr := func(args map[string]any, key string) string {
		s, _ := args[key].(string)
		return s
	}
	type spanKey struct{ trace, span string }
	spanPID := make(map[spanKey]int64)
	spanCount := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == PhaseMetadata {
			continue
		}
		trace, span := argStr(e.Args, ArgTraceID), argStr(e.Args, ArgSpanID)
		if trace == "" || span == "" {
			continue
		}
		spanCount++
		spanPID[spanKey{trace, span}] = e.PID
	}
	if spanCount == 0 {
		return fmt.Errorf("obs: trace has no spans carrying trace context (%s/%s args)", ArgTraceID, ArgSpanID)
	}
	pids := make(map[int64]bool)
	crossPID := false
	linked := 0
	for i, e := range doc.TraceEvents {
		if e.Ph == PhaseMetadata {
			continue
		}
		trace, span := argStr(e.Args, ArgTraceID), argStr(e.Args, ArgSpanID)
		if trace == "" || span == "" {
			continue
		}
		pids[e.PID] = true
		parent := argStr(e.Args, ArgParentSpan)
		if parent == "" {
			continue
		}
		parentPID, ok := spanPID[spanKey{trace, parent}]
		if !ok {
			return fmt.Errorf("obs: event %d (%q): parent span %s not found in trace %s", i, e.Name, parent, trace)
		}
		linked++
		if parentPID != e.PID {
			crossPID = true
		}
	}
	if linked == 0 {
		return fmt.Errorf("obs: trace has spans but no parent links to check")
	}
	if len(pids) > 1 && !crossPID {
		return fmt.Errorf("obs: spans from %d processes but no parent link crosses a process boundary", len(pids))
	}
	return nil
}
