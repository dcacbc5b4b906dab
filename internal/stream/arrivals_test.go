package stream

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"readys/internal/taskgraph"
)

// TestArrivalsRejectUnbuildable: an arrival the decoders accept must build. A
// "random" arrival has no sized generator, and a Cholesky of size 10⁹ asks for
// ~10²⁶ tasks; both used to be accepted, then panic or run away in Graph.
func TestArrivalsRejectUnbuildable(t *testing.T) {
	trace := func(line string) func() ([]Arrival, error) {
		return func() ([]Arrival, error) { return ReadArrivals(strings.NewReader(line)) }
	}
	for _, c := range []struct {
		name  string
		parse func() ([]Arrival, error)
		want  string
	}{
		{"trace random", trace(`{"at_ms":0,"kind":"random","size":3}`), "line 1: kind \"random\" has no sized generator"},
		{"trace huge", trace(`{"at_ms":0,"kind":"cholesky","size":1000000000}`), "line 1: cholesky size 1000000000 generates more than the limit of 4096 tasks"},
		{"pool random", func() ([]Arrival, error) {
			return PoissonProcess{Rate: 1, Jobs: 1, Kinds: []taskgraph.Kind{taskgraph.Random}, Sizes: []int{3}}.
				Generate(rand.New(rand.NewSource(1)))
		}, "kind \"random\" has no sized generator"},
	} {
		arr, err := c.parse()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %d arrivals, error %v; want an error containing %q", c.name, len(arr), err, c.want)
		}
	}
}

// FuzzReadArrivals: a trace is refused, or every arrival in it builds a graph
// within taskgraph.MaxTasks, and writing the arrivals out reads them back. The
// seeds, the two traces TestArrivalsRejectUnbuildable reads among them, are in
// testdata/fuzz/FuzzReadArrivals.
func FuzzReadArrivals(f *testing.F) {
	f.Fuzz(func(t *testing.T, trace []byte) {
		arr, err := ReadArrivals(bytes.NewReader(trace))
		if err != nil {
			return
		}
		for i, a := range arr {
			if n := a.Graph().NumTasks(); n > taskgraph.MaxTasks {
				t.Fatalf("arrival %d (%+v) builds %d tasks, limit %d", i, a, n, taskgraph.MaxTasks)
			}
		}
		var buf bytes.Buffer
		if err := WriteArrivals(&buf, arr); err != nil {
			t.Fatal(err)
		}
		back, err := ReadArrivals(&buf)
		if err != nil {
			t.Fatalf("written arrivals do not read back: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, arr) {
			t.Fatalf("round trip drifted:\ngot  %+v\nwant %+v", back, arr)
		}
	})
}
