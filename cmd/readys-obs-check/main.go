// readys-obs-check validates observability artifacts: structured-telemetry
// JSONL files (readys-train -telemetry) and Chrome trace-event JSON files
// (readys-sim -trace, readys-stream -trace, the /debug/trace of readys-serve
// and readys-gateway). It exits non-zero when a file is missing, empty, or
// malformed, so `make obs-smoke` can assert the pipeline end to end.
//
// A simulated schedule's trace carries one complete ("X") slice per attempt
// of a task on its resource's lane, in the "task" category, recorded when
// the attempt finishes or is killed. Traces from fault-injecting runs
// (readys-sim -fault-rate) carry extra spans in the "fault" category —
// "outage" and "dead" slices plus "death", "degrade" and "kill" instants —
// which are counted in the summary and validate like any other span.
//
// Two flags serve distributed traces. -merge joins per-process trace exports
// (client, gateway and replicas) into one document whose pid lanes are
// disjoint and whose spans stitch by trace ID (a 64-bit ID in 16 lowercase hex
// digits: the serving tier keeps a client's ID of 1–16 hex digits by value
// and starts a fresh trace for any other); -links additionally
// checks that every parent_span_id resolves within its trace and that at
// least one link crosses a process boundary in multi-process traces.
//
// A stream's trace (readys-stream -trace) is its bounded post-mortem record:
// arrivals, task slices, kills and fault spans. When the run outgrew the ring
// the export keeps the most recent window of whole events, reports
// dropped_events in otherData, and still validates.
//
// Usage:
//
//	readys-obs-check -jsonl train.jsonl -trace trace.json
//	readys-obs-check -merge merged.json gateway.json replica1.json replica2.json
//	readys-obs-check -trace merged.json -links
//	readys-obs-check -trace stream-trace.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"readys/internal/obs"
)

func main() {
	var (
		jsonlPath = flag.String("jsonl", "", "JSONL telemetry file to validate")
		tracePath = flag.String("trace", "", "Chrome trace-event JSON file to validate")
		links     = flag.Bool("links", false, "with -trace: also validate distributed-trace parent links")
		mergeOut  = flag.String("merge", "", "merge the trace files given as positional args into this output, then validate it")
	)
	flag.Parse()
	if *jsonlPath == "" && *tracePath == "" && *mergeOut == "" {
		log.Fatal("nothing to check: pass -jsonl, -trace and/or -merge")
	}

	if *mergeOut != "" {
		inputs := flag.Args()
		if len(inputs) < 2 {
			log.Fatal("-merge needs at least two input trace files as positional arguments")
		}
		docs := make([][]byte, len(inputs))
		for i, p := range inputs {
			data, err := os.ReadFile(p)
			if err != nil {
				log.Fatal(err)
			}
			docs[i] = data
		}
		merged, err := obs.MergeTraces(docs...)
		if err != nil {
			log.Fatal(err)
		}
		if err := obs.ValidateChromeTrace(merged); err != nil {
			log.Fatalf("merged trace invalid: %v", err)
		}
		if err := os.WriteFile(*mergeOut, merged, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: merged %d traces (%d bytes)\n", *mergeOut, len(inputs), len(merged))
	}

	if *jsonlPath != "" {
		data, err := os.ReadFile(*jsonlPath)
		if err != nil {
			log.Fatal(err)
		}
		lines, err := obs.DecodeJSONLines(data)
		if err != nil {
			log.Fatalf("%s: %v", *jsonlPath, err)
		}
		if len(lines) == 0 {
			log.Fatalf("%s: no telemetry records", *jsonlPath)
		}
		var last map[string]any
		if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
			log.Fatalf("%s: final record: %v", *jsonlPath, err)
		}
		fmt.Printf("%s: %d records, final %v\n", *jsonlPath, len(lines), last)
	}

	if *tracePath != "" {
		data, err := os.ReadFile(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := obs.ValidateChromeTrace(data); err != nil {
			log.Fatalf("%s: %v", *tracePath, err)
		}
		if *links {
			if err := obs.ValidateTraceLinks(data); err != nil {
				log.Fatalf("%s: %v", *tracePath, err)
			}
		}
		outages, kills := countFaultSpans(data)
		switch {
		case *links:
			fmt.Printf("%s: valid Chrome trace, parent links resolve (%d bytes)\n", *tracePath, len(data))
		case outages+kills > 0:
			fmt.Printf("%s: valid Chrome trace (%d bytes, %d outage spans, %d kill events)\n",
				*tracePath, len(data), outages, kills)
		default:
			fmt.Printf("%s: valid Chrome trace (%d bytes)\n", *tracePath, len(data))
		}
	}
}

// countFaultSpans tallies the fault-category events a fault-injecting
// simulation emits: "outage" slices and "kill" instants. Zero for fault-free
// traces. Decode errors are ignored — ValidateChromeTrace already accepted
// the file, so the count is best-effort reporting, not validation.
func countFaultSpans(data []byte) (outages, kills int) {
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, 0
	}
	for _, e := range doc.TraceEvents {
		if e.Cat != "fault" {
			continue
		}
		switch e.Name {
		case "outage":
			outages++
		case "kill":
			kills++
		}
	}
	return outages, kills
}
