package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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
	if l1.model.meta["test"] != "1" {
		t.Fatalf("lease meta %v", l1.model.meta)
	}

	l2, hit, err := r.Acquire(taskgraph.Cholesky, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second acquire must hit the cache")
	}
	// Concurrent leases decide on the model's one agent, each with a
	// decision context of its own, bound to that agent.
	if l1.Agent() != l2.Agent() {
		t.Fatal("concurrent leases of one model must share its loaded agent")
	}
	p1, p2 := l1.Policy(), l2.Policy()
	if p1 == p2 || l1.Runner() == l2.Runner() {
		t.Fatal("concurrent leases must hold distinct policies and runners")
	}
	if p1.Agent != l1.Agent() || p2.Agent != l2.Agent() {
		t.Fatal("a leased policy is not bound to the leased agent")
	}
	l1.Release()
	l2.Release()

	// A released decider is reused rather than rebuilt.
	l3, _, err := r.Acquire(taskgraph.Cholesky, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p := l3.Policy(); p != p1 && p != p2 {
		t.Fatal("expected a pooled decision context to be reused")
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
	var first *model
	for _, T := range []int{2, 3, 4} { // third load evicts T=2
		l, _, err := r.Acquire(taskgraph.Cholesky, T, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil { // a generated and an explicit template go with it
			first = l.model
			for _, req := range []ScheduleRequest{{Kind: "cholesky", T: 2}, {Kind: "cholesky", DAG: diamond()}} {
				if _, err := l.template(&req); err != nil {
					t.Fatal(err)
				}
			}
		}
		l.Release()
	}
	resident, _, misses, evicted := r.Stats()
	if resident != 2 || evicted != 1 {
		t.Fatalf("resident=%d evicted=%d, want 2 and 1", resident, evicted)
	}
	if first.live || first.templates != nil || first.dags != nil || first.dagOrder != nil {
		t.Fatalf("evicted model: live=%v, %d templates, %d explicit DAGs", first.live, len(first.templates), len(first.dags))
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

// diamond is a four-task explicit DAG, 0 -> {1,2} -> 3, with task 2 unnamed.
func diamond() *DAGSpec {
	return &DAGSpec{
		Tasks: []DAGTask{{Kernel: 0, Name: "a"}, {Kernel: 1, Name: "bc"}, {Kernel: 2}, {Kernel: 3, Name: "d"}},
		Edges: [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}},
	}
}

// TestExplicitDAGTemplateKeys: a model keeps one template per explicit DAG
// content — every task's kernel and name and the edges in order — so each
// single change to a spec gets a template of its own, and a repeat of any of
// them, decoded from JSON laid out differently or not, finds the one it got
// first. A refused DAG is never kept, nor one whose spec weighs more than
// maxDAGBytes; a stream of distinct DAGs keeps the last maxKeptDAGs, and the
// heap they hold with them; and a key that two specs share is told apart by
// the spec the template keeps.
func TestExplicitDAGTemplateKeys(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, testSpec(taskgraph.Cholesky, 2, 1, 1))
	r := NewRegistry(dir, 1, 1)
	l, _, err := r.Acquire(taskgraph.Cholesky, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	m := l.model
	lookup := func(spec *DAGSpec) (*template, error) {
		return l.template(&ScheduleRequest{Kind: "cholesky", TrainT: 2, CPUs: 1, GPUs: 1, DAG: spec})
	}
	must := func(spec *DAGSpec) *template {
		t.Helper()
		tpl, err := lookup(spec)
		if err != nil {
			t.Fatal(err)
		}
		return tpl
	}
	variants := map[string]func(*DAGSpec){
		"as sent":                  func(*DAGSpec) {},
		"one kernel":               func(s *DAGSpec) { s.Tasks[2].Kernel = 1 },
		"one name":                 func(s *DAGSpec) { s.Tasks[3].Name = "e" },
		"the name \"\" stands for": func(s *DAGSpec) { s.Tasks[2].Name = taskgraph.KernelNamesFor(taskgraph.Cholesky)[2] + "#2" },
		"one endpoint":             func(s *DAGSpec) { s.Edges[1][0] = 1 },
		"two edges swapped":        func(s *DAGSpec) { s.Edges[0], s.Edges[1] = s.Edges[1], s.Edges[0] },
		"a duplicated edge":        func(s *DAGSpec) { s.Edges = append(s.Edges, s.Edges[0]) },
		"names joined alike":       func(s *DAGSpec) { s.Tasks[0].Name, s.Tasks[1].Name = "ab", "c" },
		// A key that joined kernels and names into one byte string would
		// read these two alike: task 1's kernel, 1, as eight bytes in a name.
		"a kernel word at a name's end":  func(s *DAGSpec) { s.Tasks[0].Name, s.Tasks[1].Name = "a\x01\x00\x00\x00\x00\x00\x00\x00b", "c" },
		"a kernel word in the next name": func(s *DAGSpec) { s.Tasks[1].Name = "b\x01\x00\x00\x00\x00\x00\x00\x00c" },
	}
	got := map[*template]string{}
	for name, change := range variants {
		spec := diamond()
		change(spec)
		tpl := must(spec)
		if other, ok := got[tpl]; ok {
			t.Errorf("%q shares the template of %q", name, other)
		}
		got[tpl] = name
	}
	for tpl, name := range got {
		spec := diamond()
		variants[name](spec)
		if again := must(spec); again != tpl {
			t.Errorf("%q sent again built a new template", name)
		}
	}
	for _, body := range []string{
		`{"kind":"cholesky","train_t":2,"cpus":1,"gpus":1,"dag":{"tasks":[{"kernel":0,"name":"a"},{"kernel":1,"name":"bc"},{"kernel":2},{"kernel":3,"name":"d"}],"edges":[[0,1],[0,2],[1,3],[2,3]]}}`,
		"{ \"gpus\": 1, \"dag\": {\"edges\": [ [0, 1], [0,2],\n[1,3], [2,3] ],\n \"tasks\": [{\"name\": \"a\", \"kernel\": 0}, {\"name\": \"bc\", \"kernel\": 1}, {\"kernel\": 2, \"name\": \"\"}, {\"name\": \"d\", \"kernel\": 3}]},\n \"cpus\": 1, \"train_t\": 2, \"kind\": \"cholesky\" }",
	} {
		var req ScheduleRequest
		if err := DecodeBody(strings.NewReader(body), &req); err != nil {
			t.Fatal(err)
		}
		if tpl := must(req.DAG); got[tpl] != "as sent" {
			t.Errorf("body %s: a template of its own, not the one the same DAG got", body)
		}
	}
	if len(m.dags) != len(variants) || len(m.dagOrder) != len(variants) {
		t.Fatalf("%d explicit DAGs kept (%d in order) for %d distinct specs", len(m.dags), len(m.dagOrder), len(variants))
	}

	cyclic := diamond()
	cyclic.Edges = append(cyclic.Edges, [2]int{3, 0})
	if _, err := lookup(cyclic); err == nil {
		t.Fatal("a cyclic DAG was accepted")
	}
	if len(m.dags) != len(variants) {
		t.Fatalf("a refused DAG was kept: %d explicit DAGs", len(m.dags))
	}

	// A stream of distinct DAGs keeps the last maxKeptDAGs of them.
	chain := func(id int) *DAGSpec {
		spec := &DAGSpec{}
		for i := range 10 {
			spec.Tasks = append(spec.Tasks, DAGTask{Kernel: i % 4, Name: fmt.Sprint(id, ".", i)})
			if i > 0 {
				spec.Edges = append(spec.Edges, [2]int{i - 1, i})
			}
		}
		return spec
	}
	const chains = 3 * maxKeptDAGs
	first := must(chain(0))
	for id := 1; id < chains; id++ {
		must(chain(id))
		if want := min(len(variants)+id+1, maxKeptDAGs); len(m.dags) != want || len(m.dagOrder) != want {
			t.Fatalf("after %d chains: %d DAGs kept, %d in order, want %d", id+1, len(m.dags), len(m.dagOrder), want)
		}
	}
	if must(chain(0)) == first {
		t.Error("the oldest chain is still kept past the cap")
	}
	if last := must(chain(chains - 1)); last != must(chain(chains-1)) {
		t.Error("the newest chain is not kept")
	}

	// A DAG whose spec weighs more than maxDAGBytes is built, and not kept.
	heavy := &DAGSpec{Tasks: []DAGTask{{Name: strings.Repeat("n", maxDAGBytes)}}}
	if must(heavy) == must(heavy) || len(m.dags) != maxKeptDAGs {
		t.Errorf("a DAG of %d bytes was kept under a cap of %d", dagBytes(heavy), maxDAGBytes)
	}
	// However long their names, the model's DAGs hold about maxKeptDAGs specs
	// of at most maxDAGBytes: one-task DAGs with names just under the cap,
	// 6.4 MB of them, leave the heap grown by one name apiece it keeps.
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	for id := range 100 {
		must(&DAGSpec{Tasks: []DAGTask{{Name: fmt.Sprint(id, strings.Repeat("n", maxDAGBytes-64))}}})
	}
	if grown, bound := heap()-before, int64(maxKeptDAGs*(maxDAGBytes+8<<10)); grown > bound {
		t.Errorf("100 DAGs of long names grew the heap by %d B, over %d B", grown, bound)
	}

	// A key two specs share is told apart by the kept copy: with each
	// changed spec's key holding the unchanged DAG's template, none gets it.
	base := must(diamond())
	for name, change := range variants {
		spec := diamond()
		change(spec)
		if name != "as sent" {
			m.dags[dagKey(spec)] = base
			if must(spec) == base || m.dags[dagKey(spec)] != base {
				t.Errorf("%q, its key holding the unchanged DAG's template, was answered from it or took the key", name)
			}
		}
	}
}
