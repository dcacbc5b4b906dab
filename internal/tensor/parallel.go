package tensor

import (
	"runtime"
	"sync"
)

// parallelThreshold is the number of multiply-adds below which the matrix
// products stay single-threaded; handing blocks to helpers costs more than a
// tiny product itself.
const parallelThreshold = 64 * 64 * 64

// maxBlocks bounds how many blocks one product is split into, so that the
// helpers a call hands blocks to fit in an array on its stack.
const maxBlocks = 64

// jobKind names a row-parallel product.
type jobKind uint8

const (
	jobDense        jobKind = iota // out = a*b
	jobLinearReLU                  // out = ReLU(a*b + bias)
	jobTransA                      // out = aᵀ*b
	jobTransASegAcc                // acc += a[seg]ᵀ*b[seg] range by range, formed in scratch out
	jobSpMM                        // out = s*b
)

// rowJob is one row-parallel product and the block [lo, hi) of its output
// rows to compute. It travels to a helper by value, so handing out a block
// allocates nothing.
type rowJob struct {
	kind           jobKind
	a, b, out, acc *Matrix
	bias           []float64
	segs           []int
	s              *Sparse
	lo, hi         int
}

// run computes the job's block.
func (j *rowJob) run() {
	switch j.kind {
	case jobDense:
		matMulRange(j.a, j.b, nil, j.out, j.lo, j.hi)
	case jobLinearReLU:
		matMulRange(j.a, j.b, j.bias, j.out, j.lo, j.hi)
	case jobTransA:
		matMulTransARange(j.a, j.b, j.out, j.lo, j.hi, 0, j.a.Rows)
	case jobTransASegAcc:
		transASegAccRange(j.a, j.b, j.segs, j.out, j.acc, j.lo, j.hi)
	case jobSpMM:
		spMMRange(j.s, j.b, j.out, j.lo, j.hi)
	}
}

// helper is a kept goroutine that runs the blocks it is handed, one at a
// time, and signals done after each.
type helper struct {
	jobs chan rowJob
	done chan struct{}
}

func (h *helper) loop() {
	for j := range h.jobs {
		j.run()
		h.done <- struct{}{}
	}
}

// helpers are the goroutines every row-parallel product in the process shares.
// One is made the first time a product wants another block run and every
// existing helper is busy, up to GOMAXPROCS−1 of them. Like the buffer pools
// they serve the whole process, so they are kept for its life: an idle helper
// is a goroutine parked on its empty jobs channel.
var helpers struct {
	sync.Mutex
	idle []*helper
	made int
}

// takeHelper returns an idle helper for the caller's sole use, making one while
// fewer than limit exist, or nil when every helper is busy.
func takeHelper(limit int) *helper {
	helpers.Lock()
	defer helpers.Unlock()
	if n := len(helpers.idle); n > 0 {
		h := helpers.idle[n-1]
		helpers.idle = helpers.idle[:n-1]
		return h
	}
	if helpers.made >= limit {
		return nil
	}
	helpers.made++
	h := &helper{jobs: make(chan rowJob, 1), done: make(chan struct{}, 1)}
	go h.loop()
	return h
}

// putHelper hands h back once its block is done.
func putHelper(h *helper) {
	helpers.Lock()
	helpers.idle = append(helpers.idle, h)
	helpers.Unlock()
}

// parallelRows computes output rows [0, rows) of j in one contiguous block per
// worker, GOMAXPROCS of them. The caller runs the first block itself and hands
// each other block to an idle helper; when no helper is free — every one busy
// with another goroutine's product — it runs the remaining blocks too, so
// concurrent callers never wait on each other. Each output row is written by
// exactly one goroutine with the same inner-loop order as the serial path, so
// results are bit-identical regardless of the split (see
// TestParallelOpsBitIdenticalAcrossWorkerCounts).
func parallelRows(rows int, j rowJob) {
	workers := min(runtime.GOMAXPROCS(0), rows, maxBlocks)
	chunk := (rows + workers - 1) / workers
	var busy [maxBlocks]*helper
	n, lo := 0, chunk
	for ; lo < rows; lo += chunk {
		h := takeHelper(workers - 1)
		if h == nil {
			break
		}
		block := j
		block.lo, block.hi = lo, min(lo+chunk, rows)
		h.jobs <- block
		busy[n] = h
		n++
	}
	j.lo, j.hi = 0, chunk
	j.run()
	if lo < rows {
		j.lo, j.hi = lo, rows
		j.run()
	}
	for _, h := range busy[:n] {
		<-h.done
		putHelper(h)
	}
}
