package fleet

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// flakyProxy fronts a dispatcher handler and fails the first n requests of
// every (method, path) with 503, then forwards. Counts total hits per path.
type flakyProxy struct {
	next  http.Handler
	fails int32
	left  atomic.Int32
	hits  map[string]*atomic.Int32
}

func newFlakyProxy(next http.Handler, fails int) *flakyProxy {
	p := &flakyProxy{next: next, fails: int32(fails), hits: map[string]*atomic.Int32{}}
	p.left.Store(int32(fails))
	return p
}

func (p *flakyProxy) counter(path string) *atomic.Int32 {
	if c, ok := p.hits[path]; ok {
		return c
	}
	c := &atomic.Int32{}
	p.hits[path] = c
	return c
}

func (p *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.counter(r.URL.Path).Add(1)
	if p.left.Add(-1) >= 0 {
		http.Error(w, `{"error":"dispatcher briefly down"}`, http.StatusServiceUnavailable)
		return
	}
	p.next.ServeHTTP(w, r)
}

func flakyClient(t *testing.T, fails int) (*flakyProxy, *Client) {
	t.Helper()
	d := newTestDispatcher(t, nil)
	proxy := newFlakyProxy(d.Handler(), fails)
	srv := httptest.NewServer(proxy)
	t.Cleanup(srv.Close)
	return proxy, NewClient(srv.URL)
}

func TestIdempotentCallsRetryThroughFlakiness(t *testing.T) {
	proxy, client := flakyClient(t, 2)

	// Register survives two 503s within the default retry budget of 3.
	workerID, ttl, err := client.Register("flaky")
	if err != nil {
		t.Fatalf("register through flaky server: %v", err)
	}
	if ttl <= 0 {
		t.Fatalf("lease TTL = %s", ttl)
	}
	if got := proxy.counter("/v1/workers/register").Load(); got != 3 {
		t.Fatalf("register sent %d times, want 3 (2 failures + 1 success)", got)
	}

	// An empty lease (204) after one more outage burst.
	proxy.left.Store(1)
	if job, _, err := client.Lease(workerID); err != nil || job != nil {
		t.Fatalf("lease = (%v, %v), want (nil, nil)", job, err)
	}
	if got := proxy.counter("/v1/lease").Load(); got != 2 {
		t.Fatalf("lease sent %d times, want 2", got)
	}
}

func TestRetriesExhaustOnPersistentOutage(t *testing.T) {
	proxy, client := flakyClient(t, 1000) // never recovers
	if _, _, err := client.Register("doomed"); err == nil {
		t.Fatal("register against a dead dispatcher succeeded")
	}
	if got := proxy.counter("/v1/workers/register").Load(); got != 1+retries {
		t.Fatalf("register sent %d times, want %d", got, 1+retries)
	}
}

func TestConflictsAndNonIdempotentCallsNotRetried(t *testing.T) {
	proxy, client := flakyClient(t, 0)

	// A 409 lease conflict is an application answer, not a transient fault.
	if err := client.Heartbeat("w-ghost", "job-ghost", nil); err != ErrLeaseLost {
		t.Fatalf("ghost heartbeat = %v, want ErrLeaseLost", err)
	}
	if got := proxy.counter("/v1/heartbeat").Load(); got != 1 {
		t.Fatalf("heartbeat sent %d times, want 1 (409 must not retry)", got)
	}

	// Submit is not idempotent: a 503 surfaces immediately.
	proxy.left.Store(1000)
	if _, _, err := client.Submit(figureJob("figure7", 3)); err == nil {
		t.Fatal("submit through outage succeeded")
	}
	if got := proxy.counter("/v1/jobs").Load(); got != 1 {
		t.Fatalf("submit sent %d times, want 1 (non-idempotent must not retry)", got)
	}
}

func TestBackoffDelayJitterBounds(t *testing.T) {
	base := 8 * time.Millisecond
	for attempt := 1; attempt <= 3; attempt++ {
		d := base << (attempt - 1)
		for i := 0; i < 100; i++ {
			got := backoffDelay(base, attempt)
			if got < d/2 || got >= d+d/2 {
				t.Fatalf("attempt %d: delay %s outside [%s, %s)", attempt, got, d/2, d+d/2)
			}
		}
	}
}
