package serve

import (
	"container/list"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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
// them keyed by their canonical model name. It keeps one parameter set per
// resident model, which every lease of the model decides on read-only, and
// one pool of decision contexts (deciders) shared by all models: Acquire
// hands every caller a decider of its own, bound to the model's agent, and
// Release returns it for the next lease of any model whose agent it fits —
// which pays Policy.Reset, not a rebuild. Each model also keeps the problems
// it has been asked to schedule (templates), shared read-only by its leases.
type Registry struct {
	dir string
	// maxModels bounds the number of resident checkpoints (LRU eviction).
	maxModels int
	// maxIdle bounds the idle deciders; beyond it the oldest is dropped.
	maxIdle int

	mu      sync.Mutex
	byName  map[string]*list.Element // -> *model, element of lru
	lru     *list.List               // front = most recently used
	idle    []*decider               // released deciders, any model's
	hits    uint64
	misses  uint64
	evicted uint64
}

// model is one resident checkpoint.
type model struct {
	// key is the (kind, T, platform) cache key; name is the full canonical
	// checkpoint name including the architecture suffix.
	key   string
	name  string
	spec  exp.AgentSpec
	meta  map[string]string
	agent *core.Agent // the loaded parameters, shared read-only by every lease
	live  bool        // false once evicted: templates built afterwards are not kept
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

// decider is one decision context: everything a request in flight mutates —
// the policy, whose buffers outlive leases (Policy.Reset only rewinds them),
// the simulator memory every run of a request happens in, and the generator
// those runs draw from, re-seeded per run. It outlives the models it served:
// an idle decider holds no agent, and eviction drops parameters and
// templates, not deciders.
type decider struct {
	cfg    core.Config // the agent config the policy's encoder was built for
	policy *core.Policy
	runner sim.Runner
	rng    *rand.Rand
}

// fits reports whether d's encoder produces the input a's network reads.
func (d *decider) fits(a *core.Agent) bool {
	return d.cfg.Window == a.Cfg.Window && d.cfg.FaultFeatures == a.Cfg.FaultFeatures
}

// Lease is one acquired model with a decision context. The agent is shared
// read-only with every other lease of the model; the policy, runner and
// generator are exclusively the lease-holder's until Release.
type Lease struct {
	registry *Registry
	model    *model
	dec      *decider
}

// Agent returns the leased model's agent, shared read-only by its leases.
func (l *Lease) Agent() *core.Agent { return l.model.agent }

// Policy returns the lease's policy, bound to Agent(). It decides exactly as
// core.NewPolicy(l.Agent()) would; sim.Simulate resets it, which is all a
// request pays for its state.
func (l *Lease) Policy() *core.Policy { return l.dec.policy }

// Runner returns the lease's simulator memory. All of a request's runs share
// it, so a Result's Trace is good until the next run.
func (l *Lease) Runner() *sim.Runner { return &l.dec.runner }

// Rand returns the lease's generator, positioned where
// rand.New(rand.NewSource(seed)) starts.
func (l *Lease) Rand(seed int64) *rand.Rand {
	l.dec.rng.Seed(seed)
	return l.dec.rng
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

// Release returns the lease's decider to the registry's idle pool, dropping
// the oldest idle one when the pool is full. The lease must not be used
// afterwards.
func (l *Lease) Release() {
	if l.dec == nil {
		return
	}
	r, d := l.registry, l.dec
	l.dec = nil
	d.policy.Agent = nil // an evicted model's parameters go with the model
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.idle) == r.maxIdle {
		r.idle = slices.Delete(r.idle, 0, 1)
	}
	r.idle = append(r.idle, d)
}

// NewRegistry builds a registry over dir holding at most maxModels resident
// checkpoints (minimum 1) and at most maxIdle idle deciders across them
// (minimum 1): one per request the caller runs at once is enough.
func NewRegistry(dir string, maxModels, maxIdle int) *Registry {
	if maxModels < 1 {
		maxModels = 1
	}
	if maxIdle < 1 {
		maxIdle = 1
	}
	return &Registry{
		dir:       dir,
		maxModels: maxModels,
		maxIdle:   maxIdle,
		byName:    make(map[string]*list.Element),
		lru:       list.New(),
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
		r.hits++
		lease = r.leaseLocked(el)
		r.mu.Unlock()
		return lease, true, nil
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
	agent := core.NewAgent(spec.AgentConfig())
	meta, err := agent.LoadCheckpoint(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, fmt.Errorf("serve: checkpoint %s disappeared: %w", path, errModelNotFound)
		}
		return nil, false, fmt.Errorf("serve: loading %s: %w", path, err)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.byName[name]; ok {
		// Someone else finished loading first; use theirs.
		return r.leaseLocked(el), true, nil
	}
	el := r.lru.PushFront(&model{key: name, name: spec.Name(), spec: spec, meta: meta, agent: agent, live: true})
	r.byName[name] = el
	for r.lru.Len() > r.maxModels {
		oldest := r.lru.Back()
		victim := oldest.Value.(*model)
		victim.live = false
		victim.templates = nil
		r.lru.Remove(oldest)
		delete(r.byName, victim.key)
		r.evicted++
	}
	return r.leaseLocked(el), false, nil
}

// leaseLocked leases the model of LRU element el under r.mu, with the most
// recently released idle decider that fits the model's agent, or a new one,
// bound to that agent (its values are immutable once loaded).
func (r *Registry) leaseLocked(el *list.Element) *Lease {
	r.lru.MoveToFront(el)
	m := el.Value.(*model)
	var d *decider
	for i := len(r.idle) - 1; i >= 0 && d == nil; i-- {
		if r.idle[i].fits(m.agent) {
			d = r.idle[i]
			r.idle = slices.Delete(r.idle, i, i+1)
		}
	}
	if d == nil {
		d = &decider{cfg: m.agent.Cfg, policy: core.NewPolicy(m.agent), rng: rand.New(rand.NewSource(0))}
	}
	d.policy.Agent = m.agent
	return &Lease{registry: r, model: m, dec: d}
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
