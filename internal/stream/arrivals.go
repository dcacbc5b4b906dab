// Package stream implements online multi-tenant scheduling: jobs (DAGs of
// any built-in family, mixed sizes) arrive over simulated time on one
// persistent heterogeneous platform, a single policy schedules the union of
// their ready tasks, and the headline numbers are job-level — response time,
// slowdown against an isolated HEFT run, cluster utilization, queue depth —
// instead of single-DAG makespan. This is the regime READYS is pitched for
// ("dynamic scheduling") and the one REACH and Decima-style systems evaluate
// in; the single-DAG paths elsewhere in the repo are the special case of one
// arrival at t=0.
//
// The engine underneath is sim.Cluster, which runs sim.Simulate's event loop
// with a deadline: stream turns an arrival process into AddJob/RunUntil calls
// and job-completion bookkeeping, so the fault model, duration noise and
// decision semantics are exactly those of Simulate.
package stream

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"readys/internal/taskgraph"
)

// Arrival is one job of a stream: a DAG family and size arriving at At (ms).
type Arrival struct {
	// At is the arrival time in simulated milliseconds.
	At float64 `json:"at_ms"`
	// Kind is the DAG family (serialised by name, e.g. "cholesky").
	Kind taskgraph.Kind `json:"kind"`
	// Size is the family's size parameter, the tile count T.
	Size int `json:"size"`
}

// Graph materialises the arrival's DAG. Generation is deterministic in
// (Kind, Size), so a stream replays bit-identically from its arrival list.
func (a Arrival) Graph() *taskgraph.Graph { return taskgraph.NewByKind(a.Kind, a.Size) }

// PoissonProcess parameterises a synthetic arrival stream: exponential
// interarrival times with the given rate, job families and sizes drawn
// uniformly per arrival.
type PoissonProcess struct {
	// Rate is the arrival intensity in jobs per second of simulated time
	// (1000 ms). Must be positive and finite, with a finite mean gap.
	Rate float64
	// Jobs is the number of arrivals to generate.
	Jobs int
	// Kinds is the family pool (at least one).
	Kinds []taskgraph.Kind
	// Sizes is the size pool (at least one entry, all positive).
	Sizes []int
}

// Generate draws the arrival list from rng. Draw order is fixed
// (interarrival, kind, size) so a seed pins the whole stream.
func (p PoissonProcess) Generate(rng *rand.Rand) ([]Arrival, error) {
	// NaN fails every comparison, so the rate is checked for what it must
	// be rather than for what it must not.
	if !(p.Rate > 0) || math.IsInf(p.Rate, 1) || math.IsInf(1000/p.Rate, 1) {
		return nil, fmt.Errorf("stream: arrival rate %v must be positive, with a finite mean gap of 1000/rate ms", p.Rate)
	}
	if p.Jobs <= 0 {
		return nil, fmt.Errorf("stream: job count %d must be positive", p.Jobs)
	}
	if len(p.Kinds) == 0 || len(p.Sizes) == 0 {
		return nil, fmt.Errorf("stream: empty family or size pool")
	}
	// Kinds and sizes are drawn independently: every pair may arrive.
	for _, k := range p.Kinds {
		for _, s := range p.Sizes {
			if err := (Arrival{Kind: k, Size: s}).validate(); err != nil {
				return nil, fmt.Errorf("stream: %w", err)
			}
		}
	}
	meanGap := 1000 / p.Rate // ms per arrival
	arrivals := make([]Arrival, 0, p.Jobs)
	var at float64
	for i := 0; i < p.Jobs; i++ {
		at += float64(rng.ExpFloat64() * meanGap)
		arrivals = append(arrivals, Arrival{
			At:   at,
			Kind: p.Kinds[rng.Intn(len(p.Kinds))],
			Size: p.Sizes[rng.Intn(len(p.Sizes))],
		})
	}
	return arrivals, nil
}

// ReadArrivals parses a JSONL arrival trace: one Arrival object per line
// ({"at_ms": 12.5, "kind": "cholesky", "size": 4}), blank lines ignored.
// Arrivals are sorted by time (stable, so equal-time order follows the file).
func ReadArrivals(r io.Reader) ([]Arrival, error) {
	var out []Arrival
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var a Arrival
		if err := json.Unmarshal(raw, &a); err != nil {
			return nil, fmt.Errorf("stream: arrival trace line %d: %w", line, err)
		}
		if err := a.validate(); err != nil {
			return nil, fmt.Errorf("stream: arrival trace line %d: %w", line, err)
		}
		out = append(out, a)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream: reading arrival trace: %w", err)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out, nil
}

// WriteArrivals emits the JSONL form read back by ReadArrivals.
func WriteArrivals(w io.Writer, arrivals []Arrival) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, a := range arrivals {
		if err := enc.Encode(a); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// validate accepts exactly the arrivals whose Graph builds, and builds within
// taskgraph.MaxTasks.
func (a Arrival) validate() error {
	if !(a.At >= 0) || math.IsInf(a.At, 1) {
		return fmt.Errorf("arrival time %v must be finite and non-negative", a.At)
	}
	if a.Kind == taskgraph.Random {
		return errors.New(`kind "random" has no sized generator`)
	}
	if a.Size <= 0 {
		return fmt.Errorf("size %d must be positive", a.Size)
	}
	if !taskgraph.WithinMaxTasks(a.Kind, a.Size) {
		return fmt.Errorf("%s size %d generates more than the limit of %d tasks", a.Kind, a.Size, taskgraph.MaxTasks)
	}
	return nil
}
