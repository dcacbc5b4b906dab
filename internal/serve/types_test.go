package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzScheduleRequest drives a /v1/schedule body through what the handler
// does before it needs a model: decode as handleSchedule does, Validate,
// BuildGraph. A body that gets through builds at most MaxDAGTasks tasks, and
// every one of them is in the graph's TopoOrder. The seeds are in
// testdata/fuzz/FuzzScheduleRequest.
func FuzzScheduleRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var req ScheduleRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil || req.Validate() != nil {
			return
		}
		g, err := req.BuildGraph()
		if err != nil {
			return
		}
		n := g.NumTasks()
		if n > MaxDAGTasks {
			t.Fatalf("accepted a graph of %d tasks, limit %d", n, MaxDAGTasks)
		}
		if order, err := g.TopoOrder(); err != nil || len(order) != n {
			t.Fatalf("accepted graph of %d tasks: topological order of %d, %v", n, len(order), err)
		}
	})
}
