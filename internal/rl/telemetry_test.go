package rl

import (
	"bytes"
	"encoding/json"
	"testing"

	"readys/internal/obs"
)

// runWithTelemetry trains a fresh tiny agent with a JSONL sink and returns the
// history plus the raw telemetry bytes. That a sink leaves the History as it
// is, TestHistoryMatchesParentGolden holds at two rollout workers.
func runWithTelemetry(t *testing.T) (History, []byte) {
	t.Helper()
	tr := NewTrainer(tinyAgent(1), tinyProblem(), fastCfg(9))
	var buf bytes.Buffer
	tr.Telemetry = obs.NewJSONL(&buf)
	h, err := tr.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Telemetry.Flush(); err != nil {
		t.Fatal(err)
	}
	return h, buf.Bytes()
}

// TestTelemetryMatchesHistory asserts the JSONL stream is the History,
// line for line — in particular the final-episode reward matches exactly.
func TestTelemetryMatchesHistory(t *testing.T) {
	h, data := runWithTelemetry(t)
	lines, err := obs.DecodeJSONLines(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(h.Episodes) {
		t.Fatalf("%d telemetry lines for %d episodes", len(lines), len(h.Episodes))
	}
	for i, line := range lines {
		var st EpisodeStats
		if err := json.Unmarshal(line, &st); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if st != h.Episodes[i] {
			t.Fatalf("line %d diverges from history:\njsonl:   %+v\nhistory: %+v", i, st, h.Episodes[i])
		}
	}
	final := h.Episodes[len(h.Episodes)-1]
	var last EpisodeStats
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}
	if last.Reward != final.Reward {
		t.Fatalf("final telemetry reward %v != history reward %v", last.Reward, final.Reward)
	}
}

// TestTelemetryFieldsPopulated checks the new per-episode diagnostics: the
// loss decomposes into its components and updates carry a gradient norm.
func TestTelemetryFieldsPopulated(t *testing.T) {
	cfg := fastCfg(8)
	cfg.BatchEpisodes = 4
	tr := NewTrainer(tinyAgent(1), tinyProblem(), cfg)
	h, err := tr.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var sawGrad bool
	for i, e := range h.Episodes {
		if e.PolicyLoss == 0 && e.ValueLoss == 0 {
			t.Fatalf("episode %d: loss components not recorded: %+v", i, e)
		}
		updateEpisode := (i+1)%cfg.BatchEpisodes == 0 || i == cfg.Episodes-1
		if updateEpisode && e.GradNorm > 0 {
			sawGrad = true
		}
		if !updateEpisode && e.GradNorm != 0 {
			t.Fatalf("episode %d reports a gradient norm without an update: %+v", i, e)
		}
	}
	if !sawGrad {
		t.Fatal("no update episode recorded a gradient norm")
	}
}
