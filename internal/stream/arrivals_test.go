package stream

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"readys/internal/platform"
	"readys/internal/sched"
	"readys/internal/sim"
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

// TestNonFiniteTimesRefused: a time that is not a finite number is an error
// wherever it enters a stream. A NaN rate or arrival time used to run the
// stream forever, because no event time exceeds a NaN deadline, and a +Inf
// arrival gave a "valid" result whose job response was −Inf. A deadline
// before the cluster's clock would run time backwards. Each case runs under a
// timeout, so a hang fails instead of stalling the suite.
func TestNonFiniteTimesRefused(t *testing.T) {
	within := func(name string, f func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- f() }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: no error", name)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: still running after 20 s", name)
		}
	}
	for _, rate := range []float64{math.NaN(), math.Inf(1), 1e-320, 0, -1} {
		within("rate "+fmtFloat(rate), func() error {
			_, err := PoissonProcess{Rate: rate, Jobs: 3, Kinds: chaosKinds, Sizes: []int{2}}.
				Generate(rand.New(rand.NewSource(1)))
			return err
		})
	}
	for _, at := range []float64{math.NaN(), math.Inf(1), -1} {
		within("arrival at "+fmtFloat(at), func() error {
			arr := []Arrival{{At: 0, Kind: taskgraph.Cholesky, Size: 2}, {At: at, Kind: taskgraph.LU, Size: 2}}
			_, err := Run(sched.MCTPolicy{}, Config{Platform: platform.New(2, 2), Arrivals: arr, Rng: rand.New(rand.NewSource(1))})
			return err
		})
	}
	cl, err := sim.NewCluster(platform.New(1, 1), sim.Options{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.AddJob(0, taskgraph.NewFrozenByKind(taskgraph.Cholesky, 2), platform.TimingFor(taskgraph.Cholesky)); err != nil {
		t.Fatal(err)
	}
	if err := cl.RunUntil(sched.MCTPolicy{}, 50); err != nil {
		t.Fatal(err)
	}
	within("deadline NaN", func() error { return cl.RunUntil(sched.MCTPolicy{}, math.NaN()) })
	within("deadline before now", func() error { return cl.RunUntil(sched.MCTPolicy{}, 10) })
	if cl.Now() != 50 {
		t.Errorf("a refused deadline moved the clock to %v", cl.Now())
	}
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

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
