package serve

import (
	"os"
	"path/filepath"
	"testing"

	"readys/internal/core"
	"readys/internal/exp"
	"readys/internal/taskgraph"
)

// testSpec is the small architecture used throughout the serve tests: tiny
// hidden width keeps checkpoint writing and cloning fast, and the registry
// reconstructs it purely from the file name.
func testSpec(kind taskgraph.Kind, T, cpus, gpus int) exp.AgentSpec {
	spec := exp.DefaultAgentSpec(kind, T, cpus, gpus)
	spec.Window, spec.Layers, spec.Hidden = 1, 1, 8
	return spec
}

// writeTestModel saves an untrained checkpoint for the spec into dir.
// Untrained weights schedule poorly but legally, which is all registry and
// server mechanics need.
func writeTestModel(t testing.TB, dir string, spec exp.AgentSpec) {
	t.Helper()
	agent := core.NewAgent(spec.AgentConfig())
	if err := agent.SaveCheckpoint(spec.ModelPath(dir), map[string]string{"test": "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestParseModelName(t *testing.T) {
	spec := exp.DefaultAgentSpec(taskgraph.Cholesky, 8, 2, 2)
	got, ok := ParseModelName(spec.Name() + ".json")
	if !ok {
		t.Fatalf("ParseModelName rejected canonical name %q", spec.Name()+".json")
	}
	if got.Kind != spec.Kind || got.T != spec.T || got.NumCPU != spec.NumCPU ||
		got.NumGPU != spec.NumGPU || got.Window != spec.Window ||
		got.Layers != spec.Layers || got.Hidden != spec.Hidden {
		t.Fatalf("round-trip mismatch: %+v vs %+v", got, spec)
	}
	for _, bad := range []string{
		"readys_cholesky_T8.json",
		"notes.txt",
		"readys_bogus_T8_2c2g_w2_l2_h32.json",
		"readys_cholesky_T8_2c2g_w2_l2_h32.json.bak",
	} {
		if _, ok := ParseModelName(bad); ok {
			t.Errorf("ParseModelName accepted %q", bad)
		}
	}
}

func TestRegistryAcquireCachesAndCounts(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(taskgraph.Cholesky, 4, 1, 1)
	writeTestModel(t, dir, spec)

	r := NewRegistry(dir, 4, 2)
	l1, hit, err := r.Acquire(taskgraph.Cholesky, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first acquire must be a miss")
	}
	if l1.ModelName() != spec.Name() {
		t.Fatalf("lease model %q, want %q", l1.ModelName(), spec.Name())
	}
	if l1.Meta()["test"] != "1" {
		t.Fatalf("lease meta %v", l1.Meta())
	}

	l2, hit, err := r.Acquire(taskgraph.Cholesky, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second acquire must hit the cache")
	}
	a1, a2 := l1.Agent(), l2.Agent()
	if a1 == a2 {
		t.Fatal("concurrent leases must hold distinct agent instances")
	}
	l1.Release()
	l2.Release()

	// A released clone is reused rather than re-cloned.
	l3, _, err := r.Acquire(taskgraph.Cholesky, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l3.Agent() != a1 && l3.Agent() != a2 {
		t.Fatal("expected a pooled clone to be reused")
	}
	l3.Release()

	resident, hits, misses, _ := r.Stats()
	if resident != 1 || hits != 2 || misses != 1 {
		t.Fatalf("stats resident=%d hits=%d misses=%d", resident, hits, misses)
	}
}

func TestRegistryMissingModel(t *testing.T) {
	r := NewRegistry(t.TempDir(), 4, 2)
	if _, _, err := r.Acquire(taskgraph.Cholesky, 4, 1, 1); err == nil {
		t.Fatal("expected an error for a missing checkpoint")
	}
}

func TestRegistryCorruptModel(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(taskgraph.Cholesky, 4, 1, 1)
	if err := os.WriteFile(spec.ModelPath(dir), []byte(`{"version":1,"params":[`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewRegistry(dir, 4, 2).Acquire(taskgraph.Cholesky, 4, 1, 1); err == nil {
		t.Fatal("expected an error for a corrupt checkpoint")
	}
}

func TestRegistryLRUEviction(t *testing.T) {
	dir := t.TempDir()
	for _, T := range []int{2, 3, 4} {
		writeTestModel(t, dir, testSpec(taskgraph.Cholesky, T, 1, 1))
	}
	r := NewRegistry(dir, 2, 2)
	for _, T := range []int{2, 3, 4} { // third load evicts T=2
		l, _, err := r.Acquire(taskgraph.Cholesky, T, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		l.Release()
	}
	resident, _, misses, evicted := r.Stats()
	if resident != 2 || evicted != 1 {
		t.Fatalf("resident=%d evicted=%d, want 2 and 1", resident, evicted)
	}
	// T=2 was evicted: re-acquiring it is a miss again.
	l, hit, err := r.Acquire(taskgraph.Cholesky, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	if hit {
		t.Fatal("evicted model must reload as a miss")
	}
	if _, _, m, _ := r.Stats(); m != misses+1 {
		t.Fatalf("miss counter did not advance: %d -> %d", misses, m)
	}
}

func TestRegistryList(t *testing.T) {
	dir := t.TempDir()
	specA := testSpec(taskgraph.Cholesky, 4, 1, 1)
	specB := testSpec(taskgraph.LU, 2, 2, 0)
	writeTestModel(t, dir, specA)
	writeTestModel(t, dir, specB)
	// Files outside the convention are ignored.
	if err := os.WriteFile(filepath.Join(dir, "readys_notes.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}

	r := NewRegistry(dir, 4, 2)
	l, _, err := r.Acquire(taskgraph.Cholesky, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()

	infos, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("listed %d models, want 2: %+v", len(infos), infos)
	}
	byName := map[string]ModelInfo{}
	for _, m := range infos {
		byName[m.Name] = m
	}
	if m := byName[specA.Name()]; !m.Loaded || m.Kind != "cholesky" || m.T != 4 {
		t.Fatalf("cholesky entry wrong: %+v", m)
	}
	if m := byName[specB.Name()]; m.Loaded || m.Kind != "lu" || m.CPUs != 2 || m.GPUs != 0 {
		t.Fatalf("lu entry wrong: %+v", m)
	}
}
