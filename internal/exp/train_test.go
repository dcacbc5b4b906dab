package exp

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"readys/internal/core"
	"readys/internal/obs"
	"readys/internal/taskgraph"
)

// TestTrainAgentWithTelemetry is the end-to-end acceptance check for the
// training telemetry pipeline: a short readys-train-style run with a JSONL
// sink attached must stream exactly one record per episode, and the final
// record's reward must match the returned History exactly.
func TestTrainAgentWithTelemetry(t *testing.T) {
	spec := DefaultAgentSpec(taskgraph.Cholesky, 2, 1, 1)
	spec.Hidden, spec.Layers = 8, 1

	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	_, hist, err := Train(Recipe{Spec: spec, Episodes: 4}, "", TrainOptions{Telemetry: sink})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	lines, err := obs.DecodeJSONLines(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(hist.Episodes) {
		t.Fatalf("%d telemetry lines for %d episodes", len(lines), len(hist.Episodes))
	}
	var last struct {
		Episode int     `json:"episode"`
		Reward  float64 `json:"reward"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}
	final := hist.Episodes[len(hist.Episodes)-1]
	if last.Episode != final.Episode || last.Reward != final.Reward {
		t.Fatalf("final telemetry record (ep %d, reward %v) != history (ep %d, reward %v)",
			last.Episode, last.Reward, final.Episode, final.Reward)
	}
}

// TestRecipesAreTheModels: Recipes lists exactly the checkpoints under
// models/, and each checkpoint loads under its recipe's architecture with
// its recipe's Meta — kind, T, platform, σ, episodes and architecture, or the
// stream's kinds, sizes, rate and jobs per episode — the final mean reward
// aside.
func TestRecipesAreTheModels(t *testing.T) {
	const dir = "../../models"
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	unclaimed := map[string]bool{}
	for _, f := range files {
		unclaimed[f] = true
	}
	for _, r := range Recipes() {
		path := r.Path(dir)
		if !unclaimed[path] {
			t.Errorf("recipe %s: no checkpoint %s, or a second recipe of that name", r.Name(), path)
			continue
		}
		delete(unclaimed, path)
		meta, err := core.NewAgent(r.Spec.AgentConfig()).LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("recipe %s: %v", r.Name(), err)
		}
		delete(meta, "final_mean_reward")
		if want := r.Meta(); !maps.Equal(meta, want) {
			t.Errorf("recipe %s:\n checkpoint meta %v\n recipe meta     %v", r.Name(), meta, want)
		}
	}
	for f := range unclaimed {
		t.Errorf("checkpoint %s has no recipe", f)
	}
}

// TestDriversLoadOnly: on an empty models directory every table driver fails
// at once with the readys-train command that makes the checkpoint it lacks,
// and trains and writes nothing.
func TestDriversLoadOnly(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		run  func() (*Table, error)
		cmd  string
	}{
		{"Figure3", func() (*Table, error) { return Figure3(dir) }, "readys-train -kind cholesky -T 2 -cpus 2 -gpus 2 -out "},
		{"TransferFigure", func() (*Table, error) { return TransferFigure(dir, 0, 4) }, "readys-train -kind cholesky -T 4 -cpus 0 -gpus 4 -out "},
		{"ResilienceFigure", func() (*Table, error) { return ResilienceFigure(dir) }, "readys-train -kind cholesky -T 8 -cpus 2 -gpus 2 -out "},
		{"StreamFigure", func() (*Table, error) { return StreamFigure(dir) }, "readys-train -stream -out "},
		{"Ablation", func() (*Table, error) { return Ablation(dir, 4000) }, "readys-train -kind cholesky -T 4 -cpus 2 -gpus 2 -out "},
	} {
		start := time.Now()
		tab, err := tc.run()
		if took := time.Since(start); err == nil || !strings.Contains(err.Error(), "("+tc.cmd+dir+" makes it)") || took > time.Second {
			t.Errorf("%s on an empty models directory: table %v, error %v after %v; want an error naming %q within 1 s",
				tc.name, tab, err, took, tc.cmd+dir)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("the drivers wrote %d files (%v)", len(entries), err)
	}
}
