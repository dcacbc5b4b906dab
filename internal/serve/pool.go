package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// ErrBusy is returned by Pool.Do when the bounded queue is full: the
// service's backpressure signal (mapped to 503 by the HTTP layer).
var ErrBusy = errors.New("serve: queue full")

// ErrShuttingDown is returned by Pool.Do once Shutdown has begun.
var ErrShuttingDown = errors.New("serve: shutting down")

// Pool runs submitted jobs on a fixed set of worker goroutines behind a
// bounded queue. Jobs already queued when Shutdown is called are drained, so
// a restarting daemon never drops accepted work.
type Pool struct {
	jobs    chan *poolJob
	wg      sync.WaitGroup
	mu      sync.RWMutex // guards closing against concurrent submits
	closed  bool
	queued  atomic.Int64
	running atomic.Int64
}

type poolJob struct {
	run  func()
	done chan struct{}
}

// NewPool starts workers goroutines (minimum 1) consuming a queue of the
// given capacity (minimum 0; zero means a job is only accepted when a worker
// is blocked waiting for one).
func NewPool(workers, queue int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queue < 0 {
		queue = 0
	}
	p := &Pool{jobs: make(chan *poolJob, queue)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for j := range p.jobs {
		p.queued.Add(-1)
		p.running.Add(1)
		j.run()
		p.running.Add(-1)
		close(j.done)
	}
}

// Do submits fn and waits for it to finish or for ctx to end. A full queue
// fails fast with ErrBusy. When ctx has ended by the time Do returns, it
// returns ctx.Err(); a job that had not finished by then stays queued and will
// still run — fn must be safe to complete after its requester has gone away.
func (p *Pool) Do(ctx context.Context, fn func()) error {
	j := &poolJob{run: fn, done: make(chan struct{})}

	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return ErrShuttingDown
	}
	select {
	case p.jobs <- j:
		p.queued.Add(1)
		p.mu.RUnlock()
	default:
		p.mu.RUnlock()
		return ErrBusy
	}

	select {
	case <-j.done:
		// A caller descheduled past its deadline finds both channels ready,
		// and select picks either: the deadline has passed all the same.
		return ctx.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Queued returns the number of jobs accepted but not yet started.
func (p *Pool) Queued() int { return int(p.queued.Load()) }

// Running returns the number of jobs currently executing.
func (p *Pool) Running() int { return int(p.running.Load()) }

// Shutdown stops accepting new jobs, then waits until every queued and
// running job has finished or ctx ends. It returns nil on a complete drain,
// ctx.Err() otherwise. Safe to call more than once.
func (p *Pool) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.jobs)
	}
	p.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
