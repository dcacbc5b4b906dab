package rl

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"readys/internal/core"
	"readys/internal/nn"
	"readys/internal/obs"
	"readys/internal/stream"
	"readys/internal/taskgraph"
)

// updateGolden rewrites testdata/history_*.json from the code under test. The
// committed files were generated at the parent of the batched-update change
// (per-decision tapes, EncodeFault rebuilds), so they pin that History.
var updateGolden = flag.Bool("update-golden", false, "rewrite internal/rl/testdata/history_*.json")

// paramHash is an FNV-1a hash over the bits of every parameter value in
// registration order: two agents hash equal iff their weights are bit-equal.
func paramHash(ps *nn.ParamSet) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range ps.All() {
		for _, v := range p.Value.Data {
			bits := math.Float64bits(v)
			for i := range buf {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenHistory is the on-disk form of a training run: every EpisodeStats
// float as the hex of its IEEE bits, so the comparison is exact and the file
// survives any JSON float formatting.
type goldenHistory struct {
	Baseline  string          `json:"baseline"`
	ParamHash string          `json:"param_hash"`
	Episodes  []goldenEpisode `json:"episodes"`
}

type goldenEpisode struct {
	Episode    int    `json:"episode"`
	Makespan   string `json:"makespan"`
	Reward     string `json:"reward"`
	Entropy    string `json:"entropy"`
	Loss       string `json:"loss"`
	PolicyLoss string `json:"policy_loss"`
	ValueLoss  string `json:"value_loss"`
	GradNorm   string `json:"grad_norm"`
}

func hexFloat(v float64) string { return strconv.FormatUint(math.Float64bits(v), 16) }

func toGolden(h History, hash string) goldenHistory {
	g := goldenHistory{Baseline: hexFloat(h.BaselineMakespan), ParamHash: hash}
	for _, e := range h.Episodes {
		g.Episodes = append(g.Episodes, goldenEpisode{
			Episode:    e.Episode,
			Makespan:   hexFloat(e.Makespan),
			Reward:     hexFloat(e.Reward),
			Entropy:    hexFloat(e.Entropy),
			Loss:       hexFloat(e.Loss),
			PolicyLoss: hexFloat(e.PolicyLoss),
			ValueLoss:  hexFloat(e.ValueLoss),
			GradNorm:   hexFloat(e.GradNorm),
		})
	}
	return g
}

// goldenCases are the training configurations pinned against the parent
// commit. Each run is a pure function of the worker count.
var goldenCases = []struct {
	name string
	run  func(workers int, telemetry *obs.JSONL) (History, *core.Agent, error)
}{
	{"a2c", goldenA2C(core.Config{}, func(*Config) {})},
	{"a2c_unroll", goldenA2C(core.Config{}, func(c *Config) { c.Unroll = 20 })},
	{"a2c_faults", goldenA2C(core.Config{}, func(c *Config) { c.Faults = faultSpec() })},
	{"a2c_stream", goldenA2C(core.Config{}, func(c *Config) {
		c.Arrivals = &stream.PoissonProcess{
			Rate: 4, Jobs: 3, Kinds: []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU}, Sizes: []int{2, 3},
		}
	})},
	{"a2c_fault_features", goldenA2C(core.Config{FaultFeatures: true}, func(c *Config) { c.Faults = faultSpec() })},
}

func goldenAgent(variant core.Config) *core.Agent {
	variant.Window, variant.Layers, variant.Hidden, variant.Seed = 2, 2, 16, 3
	return core.NewAgent(variant)
}

// goldenProblem is Cholesky T=4 on 2 CPUs + 2 GPUs at σ=0.1.
func goldenProblem() core.Problem {
	return core.NewProblem(taskgraph.Cholesky, 4, 2, 2, 0.1)
}

// goldenA2C trains three default-size updates (24 episodes) of A2C, writing
// telemetry to a non-nil sink.
func goldenA2C(variant core.Config, tweak func(*Config)) func(int, *obs.JSONL) (History, *core.Agent, error) {
	return func(workers int, telemetry *obs.JSONL) (History, *core.Agent, error) {
		agent := goldenAgent(variant)
		cfg := DefaultConfig()
		cfg.Episodes = 3 * cfg.BatchEpisodes
		cfg.Seed = 5
		cfg.RolloutWorkers = workers
		tweak(&cfg)
		tr := NewTrainer(agent, goldenProblem(), cfg)
		tr.Telemetry = telemetry
		h, err := tr.Run(nil)
		return h, agent, err
	}
}

// TestHistoryMatchesParentGolden holds every EpisodeStats field and the final
// weights of each pinned configuration to the bits the per-decision-tape
// trainer produced, at 1, 2 and 4 rollout workers and at 0 (GOMAXPROCS): a
// History is the same whichever worker rolls out which episode. The run at 2
// workers writes telemetry, a line per episode, which must not alter it
// either.
func TestHistoryMatchesParentGolden(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join("testdata", "history_"+c.name+".json")
			if *updateGolden {
				h, agent, err := c.run(1, nil)
				if err != nil {
					t.Fatal(err)
				}
				data, err := json.MarshalIndent(toGolden(h, paramHash(agent.Params())), "", " ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var want goldenHistory
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4, 0} {
				var lines bytes.Buffer
				var telemetry *obs.JSONL
				if workers == 2 {
					telemetry = obs.NewJSONL(&lines)
				}
				h, agent, err := c.run(workers, telemetry)
				if err != nil {
					t.Fatal(err)
				}
				if telemetry != nil {
					if err := telemetry.Flush(); err != nil {
						t.Fatal(err)
					}
					if n := bytes.Count(lines.Bytes(), []byte("\n")); n != len(h.Episodes) {
						t.Fatalf("workers=%d: %d telemetry lines for %d episodes", workers, n, len(h.Episodes))
					}
				}
				got := toGolden(h, paramHash(agent.Params()))
				if got.Baseline != want.Baseline || len(got.Episodes) != len(want.Episodes) {
					t.Fatalf("workers=%d: baseline %s / %d episodes, golden %s / %d", workers,
						got.Baseline, len(got.Episodes), want.Baseline, len(want.Episodes))
				}
				for i := range want.Episodes {
					if got.Episodes[i] != want.Episodes[i] {
						t.Fatalf("workers=%d: episode %d diverges from the parent's history:\n  got    %+v\n  golden %+v",
							workers, i, got.Episodes[i], want.Episodes[i])
					}
				}
				if got.ParamHash != want.ParamHash {
					t.Fatalf("workers=%d: history matches but final weights hash %s, golden %s", workers, got.ParamHash, want.ParamHash)
				}
			}
		})
	}
}
