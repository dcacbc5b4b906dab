package serve

import (
	"os"
	"testing"

	"readys/internal/core"
	"readys/internal/taskgraph"
)

// TestPublishInstallsAndInvalidates is the train → serve loop from the
// registry's side: publishing a new checkpoint for a served combination must
// atomically replace the file and evict the resident model, so the very next
// Acquire serves the new weights.
func TestPublishInstallsAndInvalidates(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(taskgraph.Cholesky, 4, 1, 1)
	base := spec.Name() + ".json"

	// Generation 1 on disk, loaded and resident.
	gen1 := core.NewAgent(spec.AgentConfig())
	if err := gen1.SaveCheckpoint(spec.ModelPath(dir), map[string]string{"gen": "1"}); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(dir, 4, 2)
	lease, hit, err := reg.Acquire(spec.Kind, spec.T, spec.NumCPU, spec.NumGPU)
	if err != nil {
		t.Fatal(err)
	}
	if hit || lease.model.meta["gen"] != "1" {
		t.Fatalf("first acquire = (hit=%v, gen=%q)", hit, lease.model.meta["gen"])
	}
	lease.Release()
	warm, hit, err := reg.Acquire(spec.Kind, spec.T, spec.NumCPU, spec.NumGPU)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("model not resident after first load")
	}
	warm.Release()

	// Publish generation 2 (a different seed, so genuinely different
	// parameters) while generation 1 is resident.
	spec2 := spec
	spec2.Seed = spec.Seed + 100
	gen2 := core.NewAgent(spec2.AgentConfig())
	staging := t.TempDir()
	if err := gen2.SaveCheckpoint(spec.ModelPath(staging), map[string]string{"gen": "2"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(spec.ModelPath(staging))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Publish(base, data); err != nil {
		t.Fatal(err)
	}

	// The resident generation-1 model must be gone: the next acquire is a
	// miss and serves the published weights.
	lease2, hit, err := reg.Acquire(spec.Kind, spec.T, spec.NumCPU, spec.NumGPU)
	if err != nil {
		t.Fatal(err)
	}
	defer lease2.Release()
	if hit {
		t.Fatal("stale model answered the acquire after Publish")
	}
	if got := lease2.model.meta["gen"]; got != "2" {
		t.Fatalf("acquired generation %q after publish, want 2", got)
	}
	// On-disk bytes are the published bytes, verbatim (atomic install).
	onDisk, err := os.ReadFile(spec.ModelPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if string(onDisk) != string(data) {
		t.Fatal("published checkpoint differs on disk")
	}
}

func TestPublishRejectsNonCanonicalNames(t *testing.T) {
	reg := NewRegistry(t.TempDir(), 4, 2)
	for _, bad := range []string{"", "notes.txt", "../escape.json", "readys_bogus_T8_2c2g_w2_l2_h32.json"} {
		if err := reg.Publish(bad, []byte("{}")); err == nil {
			t.Errorf("Publish(%q) accepted", bad)
		}
	}
}

func TestInvalidateReportsResidency(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(taskgraph.LU, 4, 2, 2)
	writeTestModel(t, dir, spec)
	reg := NewRegistry(dir, 4, 2)
	base := spec.Name() + ".json"

	if reg.Invalidate(base) {
		t.Fatal("Invalidate reported an eviction before anything loaded")
	}
	lease, _, err := reg.Acquire(spec.Kind, spec.T, spec.NumCPU, spec.NumGPU)
	if err != nil {
		t.Fatal(err)
	}
	if !reg.Invalidate(base) {
		t.Fatal("Invalidate missed the resident model")
	}
	// A lease handed out before the invalidation stays usable; its release
	// is dropped quietly (the model is no longer live).
	lease.Release()
	if reg.Invalidate("not-a-model.json") {
		t.Fatal("Invalidate accepted a non-canonical name")
	}
	resident, _, _, evicted := reg.Stats()
	if resident != 0 || evicted == 0 {
		t.Fatalf("stats after invalidate: resident=%d evicted=%d", resident, evicted)
	}
}
