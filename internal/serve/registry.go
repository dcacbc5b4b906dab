package serve

import (
	"container/list"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"

	"readys/internal/core"
	"readys/internal/exp"
	"readys/internal/platform"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// errModelNotFound marks Acquire failures caused by a missing checkpoint
// file (mapped to 404 by the HTTP layer).
var errModelNotFound = errors.New("model not found")

// modelNameRE matches the canonical checkpoint naming convention produced by
// exp.AgentSpec.Name: readys_<kind>_T<T>_<c>c<g>g_w<w>_l<l>_h<h>.json.
var modelNameRE = regexp.MustCompile(`^readys_([a-z]+)_T(\d+)_(\d+)c(\d+)g_w(\d+)_l(\d+)_h(\d+)\.json$`)

// ParseModelName decodes a checkpoint file name into its AgentSpec, or
// reports ok=false when the name does not follow the convention.
func ParseModelName(base string) (exp.AgentSpec, bool) {
	m := modelNameRE.FindStringSubmatch(base)
	if m == nil {
		return exp.AgentSpec{}, false
	}
	kind, err := taskgraph.KindFromString(m[1])
	if err != nil {
		return exp.AgentSpec{}, false
	}
	atoi := func(s string) int { n, _ := strconv.Atoi(s); return n }
	spec := exp.DefaultAgentSpec(kind, atoi(m[2]), atoi(m[3]), atoi(m[4]))
	spec.Window, spec.Layers, spec.Hidden = atoi(m[5]), atoi(m[6]), atoi(m[7])
	return spec, true
}

// Registry lazily loads agents from a checkpoint directory and LRU-caches
// them keyed by their canonical model name. Each resident model keeps one
// master agent (the loaded parameters) plus a free list of clones, each with
// its own decision context (a core.Policy: incremental encoder, inference
// tape and their scratch) and simulator memory; Acquire hands every caller
// its own clone, so concurrent requests never share a mutable agent even
// accidentally, and Release returns it for reuse — the next request on it
// pays Policy.Reset, not a rebuild. The model also keeps the problems it has
// been asked to schedule (templates), shared read-only by all its leases.
type Registry struct {
	dir string
	// maxModels bounds the number of resident checkpoints (LRU eviction).
	maxModels int
	// maxIdleClones bounds each model's free list; clones beyond it are
	// dropped on Release and rebuilt on demand.
	maxIdleClones int

	mu      sync.Mutex
	byName  map[string]*list.Element // -> *model, element of lru
	lru     *list.List               // front = most recently used
	hits    uint64
	misses  uint64
	evicted uint64
}

// model is one resident checkpoint.
type model struct {
	// key is the (kind, T, platform) cache key; name is the full canonical
	// checkpoint name including the architecture suffix.
	key    string
	name   string
	spec   exp.AgentSpec
	meta   map[string]string
	master *core.Agent
	free   []*clone // idle clones, capped at maxIdleClones
	live   bool     // false once evicted: stale releases are dropped
	// templates holds the generated problems requested of the model, by tile
	// count t (family and platform are the model's own). Request validation
	// bounds t and with it the map's size; eviction drops it with the model.
	templates map[int]*template
}

// template is a problem built once and scheduled many times: the frozen graph
// on the model's platform under its family's timing table (the noise level is
// each request's own), and what depends on those alone — the projected HEFT
// makespan every response quotes. It is immutable, so leases on any number of
// goroutines share it; a policy handed its graph twice in a row keeps the
// statics it derived from it (core.Policy.Reset).
type template struct {
	prob core.Problem
	heft float64
}

// newTemplate wraps a validated graph of the model's family as a template.
func (m *model) newTemplate(g *taskgraph.Graph) *template {
	prob := core.Problem{
		Graph:    g,
		Platform: platform.New(m.spec.NumCPU, m.spec.NumGPU),
		Timing:   platform.TimingFor(m.spec.Kind),
	}
	return &template{prob: prob, heft: prob.HEFTBaseline()}
}

// clone is one private copy of a model's parameters with the decision
// context built over it. The policy lives as long as the clone: between
// leases it keeps every buffer (Policy.Reset only rewinds them). Beside it
// live the simulator memory every run of a request happens in and the
// generator those runs draw from, re-seeded per run. Evicting the model drops
// its idle clones, policies included.
type clone struct {
	agent  *core.Agent
	policy *core.Policy
	runner sim.Runner
	rng    *rand.Rand
}

// Lease is one acquired agent instance. The agent, its policy, runner and
// generator are exclusively the lease-holder's until Release.
type Lease struct {
	registry *Registry
	model    *model
	clone    *clone
}

// Agent returns the leased inference instance.
func (l *Lease) Agent() *core.Agent { return l.clone.agent }

// Policy returns the leased agent's resident policy. It decides exactly
// as core.NewPolicy(l.Agent()) would; sim.Simulate resets it, which is all a
// request pays for its state.
func (l *Lease) Policy() *core.Policy { return l.clone.policy }

// Runner returns the simulator memory resident with the leased clone. All of a
// request's runs share it, so a Result's Trace is good until the next run.
func (l *Lease) Runner() *sim.Runner { return &l.clone.runner }

// Rand returns the clone's generator, positioned where
// rand.New(rand.NewSource(seed)) starts.
func (l *Lease) Rand(seed int64) *rand.Rand {
	l.clone.rng.Seed(seed)
	return l.clone.rng
}

// template returns the problem a validated request schedules. A generated
// (kind, t) body resolves to the model's resident template, built on first
// request — outside the registry lock, a racing build of the same t being
// harmless — and dropped with the model; an explicit DAG is built per request.
func (l *Lease) template(req *ScheduleRequest) (*template, error) {
	if req.DAG != nil {
		g, err := req.BuildGraph()
		if err != nil {
			return nil, err
		}
		return l.model.newTemplate(g), nil
	}
	r, m := l.registry, l.model
	r.mu.Lock()
	tpl := m.templates[req.T]
	r.mu.Unlock()
	if tpl != nil {
		return tpl, nil
	}
	tpl = m.newTemplate(taskgraph.NewFrozenByKind(m.spec.Kind, req.T))
	r.mu.Lock()
	defer r.mu.Unlock()
	if have := m.templates[req.T]; have != nil {
		return have, nil
	}
	if m.live {
		if m.templates == nil {
			m.templates = make(map[int]*template)
		}
		m.templates[req.T] = tpl
	}
	return tpl, nil
}

// ModelName returns the canonical name of the model backing the lease.
func (l *Lease) ModelName() string { return l.model.name }

// Release returns the leased clone to the model's free list (or drops it if
// the model was evicted or the list is full). The lease must not be used
// afterwards.
func (l *Lease) Release() {
	if l.clone == nil {
		return
	}
	r, m, c := l.registry, l.model, l.clone
	l.clone = nil
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.live && len(m.free) < r.maxIdleClones {
		m.free = append(m.free, c)
	}
}

// NewRegistry builds a registry over dir holding at most maxModels resident
// checkpoints (minimum 1) and at most maxIdleClones idle per-worker clones
// per checkpoint (minimum 1).
func NewRegistry(dir string, maxModels, maxIdleClones int) *Registry {
	if maxModels < 1 {
		maxModels = 1
	}
	if maxIdleClones < 1 {
		maxIdleClones = 1
	}
	return &Registry{
		dir:           dir,
		maxModels:     maxModels,
		maxIdleClones: maxIdleClones,
		byName:        make(map[string]*list.Element),
		lru:           list.New(),
	}
}

// cacheKey is the registry's cache key: the problem combination a model was
// trained for, independent of its architecture. It doubles as the canonical
// file-name prefix of the combination's checkpoints.
func cacheKey(kind taskgraph.Kind, T, cpus, gpus int) string {
	return fmt.Sprintf("readys_%s_T%d_%dc%dg", kind, T, cpus, gpus)
}

// resolveSpec finds a checkpoint for the combination in dir, discovering the
// architecture (w/l/h) from the file name. When several architectures exist
// for one combination, the lexicographically first name wins, keeping the
// choice deterministic.
func (r *Registry) resolveSpec(kind taskgraph.Kind, T, cpus, gpus int) (exp.AgentSpec, error) {
	paths, err := filepath.Glob(filepath.Join(r.dir, cacheKey(kind, T, cpus, gpus)+"_w*.json"))
	if err != nil {
		return exp.AgentSpec{}, err
	}
	sort.Strings(paths)
	for _, p := range paths {
		if spec, ok := ParseModelName(filepath.Base(p)); ok {
			return spec, nil
		}
	}
	return exp.AgentSpec{}, fmt.Errorf("serve: no checkpoint %s_* in %s (train it with readys-train): %w",
		cacheKey(kind, T, cpus, gpus), r.dir, errModelNotFound)
}

// Acquire leases an inference agent for the given problem combination,
// loading the checkpoint on first use. cacheHit reports whether the model
// was already resident. Callers must Release the lease.
func (r *Registry) Acquire(kind taskgraph.Kind, T, cpus, gpus int) (lease *Lease, cacheHit bool, err error) {
	name := cacheKey(kind, T, cpus, gpus)

	r.mu.Lock()
	if el, ok := r.byName[name]; ok {
		r.lru.MoveToFront(el)
		m := el.Value.(*model)
		r.hits++
		lease = r.leaseLocked(m)
		r.mu.Unlock()
		return lease.ready(), true, nil
	}
	r.misses++
	r.mu.Unlock()

	// Load outside the lock so a slow disk read does not serialise the
	// whole service. A racing load of the same model is harmless: the
	// loser's copy is inserted-or-discarded below.
	spec, err := r.resolveSpec(kind, T, cpus, gpus)
	if err != nil {
		return nil, false, err
	}
	path := spec.ModelPath(r.dir)
	master := core.NewAgent(spec.AgentConfig())
	meta, err := master.LoadCheckpoint(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, fmt.Errorf("serve: checkpoint %s disappeared: %w", path, errModelNotFound)
		}
		return nil, false, fmt.Errorf("serve: loading %s: %w", path, err)
	}

	r.mu.Lock()
	if el, ok := r.byName[name]; ok {
		// Someone else finished loading first; use theirs.
		r.lru.MoveToFront(el)
		lease = r.leaseLocked(el.Value.(*model))
		r.mu.Unlock()
		return lease.ready(), true, nil
	}
	m := &model{key: name, name: spec.Name(), spec: spec, meta: meta, master: master, live: true}
	r.byName[name] = r.lru.PushFront(m)
	for r.lru.Len() > r.maxModels {
		oldest := r.lru.Back()
		victim := oldest.Value.(*model)
		victim.live = false
		victim.free, victim.templates = nil, nil
		r.lru.Remove(oldest)
		delete(r.byName, victim.key)
		r.evicted++
	}
	lease = r.leaseLocked(m)
	r.mu.Unlock()
	// The first lease uses its own clone so the master's parameters stay a
	// pristine copy of the checkpoint.
	return lease.ready(), false, nil
}

// leaseLocked resolves what a lease of m carries — an idle clone if there is
// one — under r.mu; ready finishes it outside.
func (r *Registry) leaseLocked(m *model) *Lease {
	l := &Lease{registry: r, model: m}
	if n := len(m.free); n > 0 {
		l.clone = m.free[n-1]
		m.free = m.free[:n-1]
	}
	return l
}

// ready does the lease's expensive part outside the registry lock: cloning
// the master when no idle clone was free (its values are immutable once
// loaded).
func (l *Lease) ready() *Lease {
	if l.clone == nil {
		agent := l.model.master.Clone()
		l.clone = &clone{agent: agent, policy: core.NewPolicy(agent), rng: rand.New(rand.NewSource(0))}
	}
	return l
}

// Stats returns the registry's counters: resident models, cache hits,
// misses and evictions.
func (r *Registry) Stats() (resident int, hits, misses, evicted uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lru.Len(), r.hits, r.misses, r.evicted
}

// List scans the model directory for canonically named checkpoints and
// reports each with its resident state. The listing is sorted by name.
func (r *Registry) List() ([]ModelInfo, error) {
	paths, err := filepath.Glob(filepath.Join(r.dir, "readys_*.json"))
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	loaded := make(map[string]map[string]string, len(r.byName))
	for _, el := range r.byName {
		m := el.Value.(*model)
		loaded[m.name] = m.meta
	}
	r.mu.Unlock()

	var out []ModelInfo
	for _, p := range paths {
		spec, ok := ParseModelName(filepath.Base(p))
		if !ok {
			continue
		}
		meta, resident := loaded[spec.Name()]
		out = append(out, ModelInfo{
			Name:   spec.Name(),
			Kind:   spec.Kind.String(),
			T:      spec.T,
			CPUs:   spec.NumCPU,
			GPUs:   spec.NumGPU,
			Window: spec.Window,
			Layers: spec.Layers,
			Hidden: spec.Hidden,
			Loaded: resident,
			Meta:   meta,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Dir returns the registry's checkpoint directory.
func (r *Registry) Dir() string { return r.dir }
