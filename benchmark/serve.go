package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"readys/internal/gateway"
	"readys/internal/serve"
	"readys/internal/taskgraph"
)

// Replica port pairs, tried in order. Every pair makes the gateway's
// rendezvous hash (spec hash | replica URL) put cholesky and qr on the first
// replica and lu on the second, so the working set of each replica — and with
// it heap size and latency — is the same on every run. The ports sit below the
// ephemeral range so an outgoing connection never takes one.
var replicaPortPairs = [][2]int{{18474, 18475}, {18476, 18477}, {18480, 18481}, {18484, 18485}}

// wantOwner is the replica index RouteFor must give each T=4 model.
var wantOwner = map[taskgraph.Kind]int{taskgraph.Cholesky: 0, taskgraph.LU: 1, taskgraph.QR: 0}

const (
	servePlatformCPUs = 2
	servePlatformGPUs = 2
	serveSigma        = 0.1
)

// reqClass is one kind of request body; a body is prefix + seed + suffix, so
// the client renders one with two appends.
type reqClass struct {
	name     string
	kind     taskgraph.Kind
	t        int
	explicit bool
	tasks    int
	prefix   []byte
	suffix   []byte
}

func (c *reqClass) body(dst []byte, seed int64) []byte {
	dst = append(dst[:0], c.prefix...)
	dst = strconv.AppendInt(dst, seed, 10)
	return append(dst, c.suffix...)
}

// request returns the decoded form of body(seed), for RouteFor and replays.
func (c *reqClass) request(seed int64) (*serve.ScheduleRequest, error) {
	var req serve.ScheduleRequest
	if err := json.Unmarshal(c.body(nil, seed), &req); err != nil {
		return nil, fmt.Errorf("class %s: %w", c.name, err)
	}
	return &req, nil
}

// newReqClass renders the body template of a generated (kind + t) or an
// explicit-DAG (dag + train_t) request for the same graph.
func newReqClass(kind taskgraph.Kind, t int, explicit bool) (*reqClass, error) {
	g := taskgraph.NewByKind(kind, t)
	c := &reqClass{kind: kind, t: t, explicit: explicit, tasks: g.NumTasks(), suffix: []byte("}")}
	head := fmt.Sprintf(`{"kind":%q,"cpus":%d,"gpus":%d,"sigma":%g,`, kind.String(), servePlatformCPUs, servePlatformGPUs, serveSigma)
	if !explicit {
		c.name = kind.String() + "/gen"
		c.prefix = []byte(head + fmt.Sprintf(`"t":%d,"seed":`, t))
		return c, nil
	}
	c.name = kind.String() + "/dag"
	spec := serve.DAGSpec{}
	for _, task := range g.Tasks {
		spec.Tasks = append(spec.Tasks, serve.DAGTask{Kernel: int(task.Kernel), Name: task.Name})
	}
	for from, succ := range g.Succ {
		for _, to := range succ {
			spec.Edges = append(spec.Edges, [2]int{from, to})
		}
	}
	dag, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("class %s: %w", c.name, err)
	}
	c.prefix = []byte(head + fmt.Sprintf(`"train_t":%d,"dag":%s,"seed":`, t, dag))
	return c, nil
}

// serveClasses is the fixed class sequence of a serve workload: the three
// paper families at tile count t, alternating generated and (when withDAG)
// explicit-DAG bodies.
func serveClasses(t int, withDAG bool) ([]*reqClass, error) {
	var out []*reqClass
	for _, kind := range []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR} {
		for _, explicit := range []bool{false, true} {
			if explicit && !withDAG {
				continue
			}
			c, err := newReqClass(kind, t, explicit)
			if err != nil {
				return nil, err
			}
			out = append(out, c)
		}
	}
	return out, nil
}

// httpNode is one listening HTTP server the benchmark owns.
type httpNode struct {
	url      string
	hs       *http.Server
	served   sync.WaitGroup
	requests atomic.Int64 // POST /v1/schedule requests seen (replicas only)
}

// startNode listens on addr and serves the handler that handler builds for
// the new node (which lets the handler count into the node).
func startNode(addr string, handler func(n *httpNode) http.Handler) (*httpNode, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	n := &httpNode{url: "http://" + ln.Addr().String()}
	n.hs = &http.Server{Handler: handler(n)}
	n.served.Add(1)
	go func() {
		defer n.served.Done()
		_ = n.hs.Serve(ln) // always ErrServerClosed after stop
	}()
	return n, nil
}

func (n *httpNode) stop(ctx context.Context) error {
	err := n.hs.Shutdown(ctx)
	n.served.Wait()
	return err
}

// topology is the system under test for the serve workloads: one or two
// replicas, optionally behind a gateway, all in this process over real TCP.
type topology struct {
	replicas []*serve.Server
	nodes    []*httpNode // one per replica
	gw       *gateway.Gateway
	gwNode   *httpNode
	target   string // where clients post
	client   *http.Client
	rec      atomic.Pointer[recorder] // set while a traced round runs
}

// spanHandler records a span around h for requests that carry the benchmark's
// request id, and, for a replica, a derived child span for the rollout the
// response reports in elapsed_ms.
func (t *topology) spanHandler(layer, name, parent string, replica bool, count *atomic.Int64, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if count != nil && r.URL.Path == "/v1/schedule" {
			count.Add(1)
		}
		rec := t.rec.Load()
		id, traced := requestID(r)
		if rec == nil || !traced {
			h.ServeHTTP(w, r)
			return
		}
		var tee *teeWriter
		if replica {
			tee = &teeWriter{ResponseWriter: w}
			w = tee
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		rec.add(layer, name, parent, id, start, end)
		if tee != nil {
			if ms, ok := elapsedMS(tee.buf.Bytes()); ok {
				// The rollout's position inside the handler is not visible
				// from outside; only its length is. It is drawn flush with
				// the handler's end.
				rollStart := end.Add(-time.Duration(ms * float64(time.Millisecond)))
				if rollStart.Before(start) {
					rollStart = start
				}
				rec.add("core+sim", "serve.rollout", name, id, rollStart, end)
			}
		}
	})
}

const benchRequestHeader = "X-Trace-ID"

// requestID reads the id the benchmark's client put on a traced request. The
// gateway forwards X-Trace-ID to the replica, which is how spans of one
// request find each other across the hop.
func requestID(r *http.Request) (int64, bool) {
	v := r.Header.Get(benchRequestHeader)
	if v == "" {
		return 0, false
	}
	id, err := strconv.ParseInt(v, 16, 64)
	return id, err == nil
}

type teeWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (w *teeWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	return w.ResponseWriter.Write(p)
}

// elapsedMS pulls elapsed_ms out of a schedule response without decoding the
// placements.
func elapsedMS(body []byte) (float64, bool) {
	const key = `"elapsed_ms":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(key):]
	j := bytes.IndexAny(rest, ",}")
	if j < 0 {
		return 0, false
	}
	ms, err := strconv.ParseFloat(string(bytes.TrimSpace(rest[:j])), 64)
	return ms, err == nil
}

// buildTopology starts the replicas (and the gateway when withGateway) and
// checks the gateway's routing against wantOwner.
func buildTopology(modelsDir string, withGateway bool, clients int, classes []*reqClass, portPairs [][2]int) (*topology, error) {
	if !withGateway {
		t := &topology{}
		if err := t.startReplicas(modelsDir, []string{"127.0.0.1:0"}, "client.request"); err != nil {
			return nil, err
		}
		t.target = t.nodes[0].url
		t.client = newLoadClient(clients)
		return t, nil
	}
	var errs []error
	for _, pair := range portPairs {
		t := &topology{}
		addrs := []string{fmt.Sprintf("127.0.0.1:%d", pair[0]), fmt.Sprintf("127.0.0.1:%d", pair[1])}
		err := t.startReplicas(modelsDir, addrs, "gateway.handler")
		if err == nil {
			err = t.startGateway(classes)
		}
		if err == nil {
			t.client = newLoadClient(clients)
			return t, nil
		}
		errs = append(errs, fmt.Errorf("replica ports %d,%d: %w", pair[0], pair[1], err))
		t.close()
	}
	return nil, fmt.Errorf("no usable replica port pair (a fixed pair keeps the model-to-replica split identical across runs): %w", errors.Join(errs...))
}

func (t *topology) startReplicas(modelsDir string, addrs []string, parentSpan string) error {
	for _, addr := range addrs {
		srv := serve.New(serve.Config{ModelsDir: modelsDir})
		t.replicas = append(t.replicas, srv)
		node, err := startNode(addr, func(n *httpNode) http.Handler {
			return t.spanHandler("serve", "serve.handler", parentSpan, true, &n.requests, srv.Handler())
		})
		if err != nil {
			return err
		}
		t.nodes = append(t.nodes, node)
	}
	return nil
}

func (t *topology) startGateway(classes []*reqClass) error {
	urls := make([]string, len(t.nodes))
	for i, n := range t.nodes {
		urls[i] = n.url
	}
	gw, err := gateway.New(gateway.Config{Replicas: urls})
	if err != nil {
		return err
	}
	t.gw = gw
	for _, c := range classes {
		req, err := c.request(1)
		if err != nil {
			return err
		}
		if got, want := gw.RouteFor(req), urls[wantOwner[c.kind]]; got != want {
			return fmt.Errorf("gateway routes %s to %s, want %s", c.name, got, want)
		}
	}
	node, err := startNode("127.0.0.1:0", func(*httpNode) http.Handler {
		return t.spanHandler("gateway", "gateway.handler", "client.request", false, nil, gw.Handler())
	})
	if err != nil {
		return err
	}
	t.gwNode = node
	t.target = node.url
	return nil
}

// newLoadClient sizes the connection pool to the client count: every client
// keeps exactly one connection, none is opened or dropped mid-run.
func newLoadClient(clients int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        clients,
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
		},
	}
}

// ownerURL is the replica that serves class c: the gateway's choice, or the
// only replica.
func (t *topology) ownerURL(c *reqClass) string {
	if t.gw == nil {
		return t.nodes[0].url
	}
	return t.nodes[wantOwner[c.kind]].url
}

func (t *topology) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if t.client != nil {
		t.client.CloseIdleConnections()
	}
	if t.gwNode != nil {
		_ = t.gwNode.stop(ctx)
	}
	if t.gw != nil {
		t.gw.Close()
	}
	for _, n := range t.nodes {
		_ = n.stop(ctx)
	}
	for _, srv := range t.replicas {
		_ = srv.Shutdown(ctx)
	}
}

// opResult is what the client keeps of one answered request.
type opResult struct {
	ok        bool
	status    int
	latency   time.Duration
	quality   float64 // heft_makespan_ms ÷ makespan_ms
	makespan  float64
	elapsedMs float64
	decisions int
	why       string
}

// post sends one schedule request and checks the answer: 200, one placement
// per task, a positive makespan. Latency runs from the send to the last byte
// of the response; decoding and checking are the client's own work and sit
// outside it.
func post(client *http.Client, url string, body []byte, tasks int, traceID int64) opResult {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/schedule", bytes.NewReader(body))
	if err != nil {
		return opResult{why: err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != 0 {
		req.Header.Set(benchRequestHeader, strconv.FormatInt(traceID, 16))
	}
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return opResult{why: err.Error()}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res := opResult{status: resp.StatusCode, latency: time.Since(start)}
	if err != nil {
		res.why = err.Error()
		return res
	}
	if resp.StatusCode != http.StatusOK {
		res.why = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return res
	}
	var sr serve.ScheduleResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		res.why = "decoding response: " + err.Error()
		return res
	}
	switch {
	case sr.NumTasks != tasks || len(sr.Placements) != tasks:
		res.why = fmt.Sprintf("%d placements for %d tasks (want %d)", len(sr.Placements), sr.NumTasks, tasks)
	case !(sr.Makespan > 0) || !(sr.HEFTMakespan > 0):
		res.why = fmt.Sprintf("makespan %v, HEFT makespan %v", sr.Makespan, sr.HEFTMakespan)
	default:
		res.ok = true
		res.quality = sr.HEFTMakespan / sr.Makespan
		res.makespan = sr.Makespan
		res.elapsedMs = sr.ElapsedMS
		res.decisions = sr.Decisions
	}
	return res
}

// serveRound is one closed-loop round: clients goroutines share a counter of
// ops still to send, each sending its next request only after the reply to its
// previous one. Op i of round r is class i mod len(classes) with simulation
// seed mix(seed, r, i), so a round is the same work on every run of a seed.
type serveRound struct {
	latMs     []float64 // latency of every answered op, in op order
	wallS     float64
	attempted int
	failed    int
	rejected  int // 503 or 504
	firstWhy  string
	// Sums in op order, so a replay of the same round gives the same bits.
	quality, elapsedMs, latencySumMs float64
}

func (t *topology) runRound(classes []*reqClass, seed int64, round, ops, clients int, rec *recorder) serveRound {
	results := make([]opResult, ops)
	t.rec.Store(rec)
	defer t.rec.Store(nil)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var body []byte
			for {
				i := int(next.Add(1)) - 1
				if i >= ops {
					return
				}
				class := classes[i%len(classes)]
				body = class.body(body, mixSeed(seed, int64(round), int64(i)))
				var traceID int64
				var opStart time.Time
				if rec != nil {
					traceID = int64(round)<<32 | int64(i+1)
					opStart = time.Now()
				}
				results[i] = post(t.client, t.target, body, class.tasks, traceID)
				if rec != nil {
					rec.add("client", "client.request", "", traceID, opStart, opStart.Add(results[i].latency))
				}
			}
		}()
	}
	wg.Wait()
	out := serveRound{wallS: time.Since(start).Seconds(), attempted: ops}
	for _, r := range results {
		if !r.ok {
			out.failed++
			if r.status == http.StatusServiceUnavailable || r.status == http.StatusGatewayTimeout {
				out.rejected++
			}
			if out.firstWhy == "" {
				out.firstWhy = r.why
			}
			continue
		}
		ms := float64(r.latency) / float64(time.Millisecond)
		out.latMs = append(out.latMs, ms)
		out.latencySumMs += ms
		out.quality += r.quality
		out.elapsedMs += r.elapsedMs
	}
	return out
}

// probeModels sends one request per class through the front door and one
// straight to the replica that owns the class, and requires the two answers to
// agree on makespan and decision count: the gateway must not change a plan.
func (t *topology) probeModels(classes []*reqClass, seed int64) error {
	var body []byte
	for i, c := range classes {
		body = c.body(body, mixSeed(seed, -1, int64(i)))
		front := post(t.client, t.target, body, c.tasks, 0)
		if !front.ok {
			return fmt.Errorf("probe %s via %s: %s", c.name, t.target, front.why)
		}
		direct := post(t.client, t.ownerURL(c), body, c.tasks, 0)
		if !direct.ok {
			return fmt.Errorf("probe %s direct: %s", c.name, direct.why)
		}
		if front.makespan != direct.makespan || front.decisions != direct.decisions {
			return fmt.Errorf("probe %s: front door answered makespan %v in %d decisions, its replica %v in %d",
				c.name, front.makespan, front.decisions, direct.makespan, direct.decisions)
		}
	}
	return nil
}

// mixSeed derives an independent seed from (seed, a, b) with splitmix64, so
// neighbouring benchmark seeds share no simulation seeds.
func mixSeed(seed, a, b int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(a)*0xBF58476D1CE4E5B9 + uint64(b)*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1) // non-negative: the seed travels as JSON
}
