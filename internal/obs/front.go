package obs

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// RequestCounter counts the requests a Front serves: BeginRequest before the
// endpoint runs, EndRequest with its latency and status after. A serving
// replica keeps its in-flight gauge and latency histogram behind it, a
// gateway its request and error counters.
type RequestCounter interface {
	BeginRequest(endpoint string)
	EndRequest(endpoint string, d time.Duration, status int)
}

// Endpoint is a handler behind a Front. It gets the request's ID, which is
// also its trace lane, and the context its child spans name as parent (the
// zero SpanContext on an untraced endpoint).
type Endpoint func(w http.ResponseWriter, r *http.Request, id int64, sc SpanContext)

// Front is the HTTP boundary a serving process shares with the others: request
// IDs, trace-context adoption, request counting, the request span, the JSON
// and error writers, and the GET /metrics (Prometheus text exposition) and
// GET /debug/trace (Chrome trace-event JSON) endpoints.
type Front struct {
	name    string // the error and log prefix, "serve" or "gateway"
	pid     int64
	epoch   time.Time
	tracer  *Tracer
	reg     *Registry
	counter RequestCounter
	logger  *log.Logger
	reqSeq  atomic.Int64
}

// NewFront returns a front that records spans on tracer as process pid, named
// "readys-<name>", serves reg on /metrics and counts requests on counter;
// logger (nil for none) receives write failures.
func NewFront(name string, pid int64, tracer *Tracer, reg *Registry, counter RequestCounter, logger *log.Logger) *Front {
	tracer.NameProcess(pid, "readys-"+name)
	return &Front{name: name, pid: pid, epoch: time.Now(), tracer: tracer, reg: reg, counter: counter, logger: logger}
}

// Mount registers GET /metrics, counted but not traced (scrapes would crowd
// the ring), and GET /debug/trace on mux.
func (f *Front) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/metrics", f.Wrap("metrics", false, f.handleMetrics))
	mux.HandleFunc("/debug/trace", f.handleTrace)
}

// Uptime is the time since the front was built.
func (f *Front) Uptime() time.Duration { return time.Since(f.epoch) }

// Wrap serves h as the named endpoint. Each request gets an ID, echoed in
// X-Request-ID, and the caller's trace (or a fresh one), echoed in X-Trace-ID;
// it is counted, and when traced is set it records a request span, parent of
// the spans h records under sc. Liveness probes and metric scrapes are
// counted but not traced: probed several times a second, they would push the
// schedule requests out of the ring.
func (f *Front) Wrap(endpoint string, traced bool, h Endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := f.reqSeq.Add(1)
		w.Header().Set("X-Request-ID", strconv.FormatInt(id, 10))
		traceID, parentSpan, _ := ExtractTraceContext(r.Header)
		if traceID == "" {
			traceID = NewTraceID()
		}
		link := RootLink(traceID, parentSpan)
		w.Header().Set(HeaderTraceID, traceID)
		f.counter.BeginRequest(endpoint)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r, id, link.Context())
		f.counter.EndRequest(endpoint, time.Since(start), sw.status)
		if traced {
			f.Span("request", endpoint, id, start, link,
				Int(KeyRequestID, id), String(KeyEndpoint, endpoint), Int(KeyStatus, int64(sw.status)))
		}
	}
}

// statusWriter captures the response code for counting and the request span.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Span records a completed slice from start to now on request lane tid.
// Children of the request span pass sc.Child() as their link.
func (f *Front) Span(name, cat string, tid int64, start time.Time, link Link, attrs ...Attr) {
	f.tracer.Span(name, cat, f.pid, tid, float64(start.Sub(f.epoch))/float64(time.Microsecond),
		float64(time.Since(start))/float64(time.Microsecond), link, attrs...)
}

// WriteJSON answers status with v as JSON.
func (f *Front) WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		f.logf("writing response: %v", err)
	}
}

// errorBody is the JSON envelope of every non-2xx answer.
type errorBody struct {
	Error string `json:"error"`
}

// WriteError answers status with {"error": err}.
func (f *Front) WriteError(w http.ResponseWriter, status int, err error) {
	f.WriteJSON(w, status, errorBody{Error: err.Error()})
}

// Allow reports whether r uses method, answering 405 "<name>: use <method>"
// when it does not.
func (f *Front) Allow(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	f.WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("%s: use %s", f.name, method))
	return false
}

func (f *Front) logf(format string, args ...any) {
	if f.logger != nil {
		f.logger.Printf(f.name+": "+format, args...)
	}
}

// handleMetrics serves the registry in the Prometheus text exposition format.
func (f *Front) handleMetrics(w http.ResponseWriter, r *http.Request, _ int64, _ SpanContext) {
	if !f.Allow(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := f.reg.WriteText(w); err != nil {
		f.logf("writing metrics: %v", err)
	}
}

// handleTrace exports the span ring as Chrome trace-event JSON, loadable in
// chrome://tracing or https://ui.perfetto.dev.
func (f *Front) handleTrace(w http.ResponseWriter, r *http.Request) {
	if !f.Allow(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := f.tracer.WriteChromeTrace(w); err != nil {
		f.logf("writing trace: %v", err)
	}
}
