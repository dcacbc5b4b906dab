package serve

import (
	"container/list"
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"sync"
	"unsafe"

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
// it has been asked to schedule (templates), by tile count or by an explicit
// DAG's content, shared read-only by its leases.
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

// model is one resident checkpoint and the problems scheduled on it.
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
	// dags holds the explicit DAGs requested of the model by their dagKey,
	// each with a copy of its spec that a lookup must equal, and dagOrder
	// their keys oldest first. Eviction drops them with the model.
	dags     map[uint64]*template
	dagOrder []uint64
}

// A model keeps its last maxKeptDAGs explicit DAGs whose specs weigh at most
// maxDAGBytes (dagBytes; LU at T=8: 15 kB). A kept DAG holds at most ≈ 5 times
// its spec with its graph (2 730 unnamed tasks: 305 kB), so a model's hold
// under 5 MB whatever their names; a heavier DAG is built per request.
const (
	maxKeptDAGs = 16
	maxDAGBytes = 64 << 10
)

// dagSeed seeds every model's DAG keys.
var dagSeed = maphash.MakeSeed()

// dagKey hashes a spec's full content, task by task and edge by edge: every
// task's kernel and name and the edges in order.
func dagKey(spec *DAGSpec) uint64 {
	var h maphash.Hash
	h.SetSeed(dagSeed)
	for _, t := range spec.Tasks {
		maphash.WriteComparable(&h, t)
	}
	for _, e := range spec.Edges {
		maphash.WriteComparable(&h, e)
	}
	return h.Sum64()
}

// dagBytes is what a decoded spec holds: its tasks, its edges and its names.
func dagBytes(spec *DAGSpec) int {
	n := len(spec.Tasks)*int(unsafe.Sizeof(DAGTask{})) + len(spec.Edges)*int(unsafe.Sizeof([2]int{}))
	for _, t := range spec.Tasks {
		n += len(t.Name)
	}
	return n
}

// template is a problem built once and scheduled many times: the frozen graph
// on the model's platform under its family's timing table (the noise level is
// each request's own), and what depends on those alone — the projected HEFT
// makespan every response quotes. A template built from an explicit DAG small
// enough to keep holds a copy of the DAG's spec, which a request's must equal
// to share it. It is immutable, so leases on any number of goroutines share
// it; a policy handed its graph twice in a row keeps the statics it derived
// from it (core.Policy.Reset).
type template struct {
	prob core.Problem
	heft float64
	dag  DAGSpec
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

// serves reports whether tpl, which may be nil, is the problem req schedules:
// any kept template of req's tile count, or one of an equal DAG.
func (tpl *template) serves(req *ScheduleRequest) bool {
	return tpl != nil && (req.DAG == nil ||
		slices.Equal(tpl.dag.Tasks, req.DAG.Tasks) && slices.Equal(tpl.dag.Edges, req.DAG.Edges))
}

// keptLocked returns what the model keeps under req's tile count or, for an
// explicit DAG, under its key; or nil.
func (m *model) keptLocked(req *ScheduleRequest, key uint64) *template {
	if req.DAG == nil {
		return m.templates[req.T]
	}
	return m.dags[key]
}

// keepLocked keeps tpl, which nothing is kept under yet, as req's template
// unless the model is evicted or tpl holds no copy of its DAG.
func (m *model) keepLocked(req *ScheduleRequest, key uint64, tpl *template) {
	switch {
	case !m.live:
	case req.DAG == nil:
		m.templates[req.T] = tpl
	case tpl.dag.Tasks != nil:
		if len(m.dagOrder) == maxKeptDAGs {
			delete(m.dags, m.dagOrder[0])
			m.dagOrder = slices.Delete(m.dagOrder, 0, 1)
		}
		m.dags[key] = tpl
		m.dagOrder = append(m.dagOrder, key)
	}
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
// (kind, t) body resolves to the model's resident template and an explicit
// DAG to the one built from an equal spec, each built on first request —
// outside the registry lock, a racing build being discarded — and dropped
// with the model. A DAG that BuildGraph refuses is never kept. The lock
// covers map reads and writes only; specs are compared outside it.
func (l *Lease) template(req *ScheduleRequest) (*template, error) {
	r, m := l.registry, l.model
	var key uint64
	if req.DAG != nil {
		key = dagKey(req.DAG)
	}
	r.mu.Lock()
	tpl := m.keptLocked(req, key)
	r.mu.Unlock()
	if tpl.serves(req) {
		return tpl, nil
	}
	if req.DAG == nil {
		tpl = m.newTemplate(taskgraph.NewFrozenByKind(m.spec.Kind, req.T))
	} else {
		g, err := req.BuildGraph()
		if err != nil {
			return nil, err
		}
		tpl = m.newTemplate(g)
		if dagBytes(req.DAG) <= maxDAGBytes {
			tpl.dag = DAGSpec{Tasks: slices.Clone(req.DAG.Tasks), Edges: slices.Clone(req.DAG.Edges)}
		}
	}
	r.mu.Lock()
	have := m.keptLocked(req, key)
	if have == nil {
		m.keepLocked(req, key, tpl)
	}
	r.mu.Unlock()
	if have.serves(req) {
		return have, nil
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
	el := r.lru.PushFront(&model{key: name, name: spec.Name(), spec: spec, meta: meta, agent: agent, live: true,
		templates: make(map[int]*template), dags: make(map[uint64]*template)})
	r.byName[name] = el
	for r.lru.Len() > r.maxModels {
		oldest := r.lru.Back()
		victim := oldest.Value.(*model)
		victim.live = false
		victim.templates, victim.dags, victim.dagOrder = nil, nil, nil
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
