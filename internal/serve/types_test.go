package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"readys/internal/taskgraph"
)

// buildGraphByEdges is BuildGraph's explicit-DAG branch as it was before
// taskgraph.NewFrozen: AddTask per task, AddEdge per edge, then Validate. It
// is the oracle FuzzScheduleRequest holds the one-pass build to.
func buildGraphByEdges(r *ScheduleRequest) (*taskgraph.Graph, error) {
	kind, err := r.kind()
	if err != nil {
		return nil, err
	}
	spec := r.DAG
	if len(spec.Tasks) == 0 {
		return nil, errors.New("serve: explicit dag has no tasks")
	}
	if len(spec.Tasks) > MaxDAGTasks {
		return nil, fmt.Errorf("serve: explicit dag has %d tasks, limit is %d", len(spec.Tasks), MaxDAGTasks)
	}
	names := taskgraph.KernelNamesFor(kind)
	g := taskgraph.NewCustom(kind, names)
	for i, task := range spec.Tasks {
		if task.Kernel < 0 || task.Kernel >= taskgraph.NumKernels {
			return nil, fmt.Errorf("serve: task %d kernel %d out of range [0,%d)", i, task.Kernel, taskgraph.NumKernels)
		}
		name := task.Name
		if name == "" {
			name = fmt.Sprintf("%s#%d", names[task.Kernel], i)
		}
		g.AddTask(taskgraph.Kernel(task.Kernel), name)
	}
	for _, e := range spec.Edges {
		from, to := e[0], e[1]
		if from < 0 || from >= len(spec.Tasks) || to < 0 || to >= len(spec.Tasks) {
			return nil, fmt.Errorf("serve: edge [%d,%d] out of range for %d tasks", from, to, len(spec.Tasks))
		}
		if from == to {
			return nil, fmt.Errorf("serve: self-edge on task %d", from)
		}
		g.AddEdge(from, to)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("serve: explicit dag invalid: %w", err)
	}
	return g, nil
}

// TestDecodeBody pins the body rule both tiers apply: one object, then only
// whitespace; a reader's error comes back as it was, so a body over the size
// limit answers 413 and any other unreadable body 400.
func TestDecodeBody(t *testing.T) {
	const obj = `{"kind":"cholesky","t":4,"cpus":1,"gpus":1}`
	for _, c := range []struct {
		name   string
		body   io.Reader
		err    error // errors.Is target; nil for success
		status int   // BodyErrorStatus of the error
	}{
		{"object", strings.NewReader(obj), nil, 0},
		{"trailing whitespace", strings.NewReader(obj + " \r\n\t"), nil, 0},
		{"trailing object", strings.NewReader(obj + `{"t":8}`), errTrailingData, http.StatusBadRequest},
		{"trailing junk", strings.NewReader(obj + " junk"), errTrailingData, http.StatusBadRequest},
		{"trailing close brace", strings.NewReader(obj + "}"), errTrailingData, http.StatusBadRequest},
		{"over the limit", http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(obj+strings.Repeat(" ", 64))), 16), nil, http.StatusRequestEntityTooLarge},
		{"trailing bytes over the limit", http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(obj+strings.Repeat(" ", 64))), int64(len(obj)+8)), nil, http.StatusRequestEntityTooLarge},
		{"client hung up", io.MultiReader(strings.NewReader(obj[:10]), iotest.ErrReader(io.ErrUnexpectedEOF)), io.ErrUnexpectedEOF, http.StatusBadRequest},
	} {
		var req ScheduleRequest
		err := DecodeBody(c.body, &req)
		if c.status == 0 {
			if err != nil || req.Kind != "cholesky" || req.T != 4 {
				t.Errorf("%s: %v, decoded %+v", c.name, err, req)
			}
			continue
		}
		if err == nil || (c.err != nil && !errors.Is(err, c.err)) || BodyErrorStatus(err) != c.status {
			t.Errorf("%s: error %v (status %d), want %v (status %d)", c.name, err, BodyErrorStatus(err), c.err, c.status)
		}
	}
}

// FuzzScheduleRequest drives a /v1/schedule body through what the handler
// does before it needs a model: DecodeBody, Validate, BuildGraph. A body that
// gets through builds at most MaxDAGTasks tasks, and every one of them is in
// the graph's TopoOrder. An explicit DAG builds as buildGraphByEdges builds it:
// both accept it with the same Tasks, Succ and Pred, row for row, or both
// refuse it with the same error. The seeds are in
// testdata/fuzz/FuzzScheduleRequest.
func FuzzScheduleRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var req ScheduleRequest
		if DecodeBody(bytes.NewReader(body), &req) != nil || req.Validate() != nil {
			return
		}
		g, err := req.BuildGraph()
		if req.DAG != nil {
			want, wantErr := buildGraphByEdges(&req)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("BuildGraph: %v; built by edges: %v", err, wantErr)
			}
			if err == nil && (!reflect.DeepEqual(g.Tasks, want.Tasks) || !reflect.DeepEqual(g.Succ, want.Succ) || !reflect.DeepEqual(g.Pred, want.Pred)) {
				t.Fatalf("BuildGraph and the build by edges differ:\n succ %v\n want %v\n pred %v\n want %v", g.Succ, want.Succ, g.Pred, want.Pred)
			}
		}
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

// TestValidateRefusesNonFiniteSigma: a noise level must be a finite number
// >= 0, as exp.CheckProblem requires of the commands' flags. JSON carries no
// NaN or Inf, but an in-process caller can pass them, and a request that
// passed them used to end in the simulator's deadlock error.
func TestValidateRefusesNonFiniteSigma(t *testing.T) {
	for _, sigma := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0, 0.5} {
		r := ScheduleRequest{Kind: "cholesky", T: 4, CPUs: 1, GPUs: 1, Sigma: sigma}
		err := r.Validate()
		if ok := sigma >= 0 && !math.IsInf(sigma, 1); (err == nil) != ok || (err != nil && !strings.Contains(err.Error(), "sigma")) {
			t.Fatalf("sigma %g: Validate() = %v, want ok=%v", sigma, err, ok)
		}
	}
}
