package tensor

import (
	"math/bits"
	"sync"
)

// Buffer pooling for hot-path scratch matrices.
//
// Training and serving allocate the same handful of matrix shapes millions of
// times (one set of intermediates per scheduling decision). GetPooled hands
// out zeroed matrices from size-bucketed sync.Pools; PutPooled returns them.
// Buckets are powers of two, so a recycled buffer serves every shape in its
// size class and the pool never fragments across the many slightly-different
// sub-DAG sizes. What is pooled is the *Matrix itself, header and backing
// slice together, so a Get/Put round trip allocates nothing.
//
// Pooling is strictly opt-in: New remains a plain allocation, and a pooled
// matrix behaves exactly like any other Matrix. Callers own the lifetime —
// returning a buffer that is still referenced elsewhere is the caller's bug,
// exactly as with any free list. PutPooled leaves the matrix at -1 x -1 with
// an empty Data, so a use after Put fails a shape or bounds check for as long
// as the matrix has not been handed out again.

// maxPoolBucket bounds the pooled size classes: buffers beyond 2^22 floats
// (32 MiB) are handed to the garbage collector instead of being retained.
const maxPoolBucket = 22

var bufPools [maxPoolBucket + 1]sync.Pool

// bucketFor returns the smallest power-of-two size class holding n floats,
// or -1 when n is too large to pool.
func bucketFor(n int) int {
	if n <= 0 {
		return 0
	}
	b := bits.Len(uint(n - 1))
	if b > maxPoolBucket {
		return -1
	}
	return b
}

// reshape hands a recycled matrix out again: rows x cols, zeroed.
func (m *Matrix) reshape(rows, cols int) *Matrix {
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
	clear(m.Data)
	return m
}

// retire detaches m from its user and returns the size class its buffer
// belongs to, or -1 when there is nothing to keep: a nil or already retired
// matrix, or a capacity that is not a pooled size class (a plain New or
// FromSlice allocation, which is left to the GC).
func (m *Matrix) retire() int {
	if m == nil || m.Rows < 0 {
		return -1
	}
	c := cap(m.Data)
	b := bucketFor(c)
	if c == 0 || b < 0 || 1<<b != c {
		m.Data = nil
		return -1
	}
	m.Rows, m.Cols, m.Data = -1, -1, m.Data[:0]
	return b
}

// GetPooled returns a zeroed rows x cols matrix backed by a recycled buffer
// when one is available. Return it with PutPooled once no reference escapes.
func GetPooled(rows, cols int) *Matrix {
	n := rows * cols
	b := bucketFor(n)
	if b < 0 {
		return New(rows, cols)
	}
	if v := bufPools[b].Get(); v != nil {
		return v.(*Matrix).reshape(rows, cols)
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, n, 1<<b)}
}

// PutPooled returns m to its size-class pool. The matrix must not be used
// afterwards; putting it twice is a no-op. Matrices whose capacity is not a
// pooled size class (e.g. built with New or FromSlice) are detached and
// dropped.
func PutPooled(m *Matrix) {
	if b := m.retire(); b >= 0 {
		bufPools[b].Put(m)
	}
}

// FreeList is a single-goroutine free list layered over the shared pools: Put
// keeps a matrix, Get prefers a kept one of the right size class and falls
// back to GetPooled, Drain hands everything kept to the shared pools. The
// shared pools sit on sync.Pool, which a garbage collection empties; a caller
// that cycles through the same large buffers pass after pass (the training
// update's tape) keeps them here instead of re-making them after every
// collection. The zero value is an empty list.
type FreeList struct {
	free []*Matrix
}

// Get returns a zeroed rows x cols matrix, reusing a kept buffer when one of
// its size class is on the list.
func (f *FreeList) Get(rows, cols int) *Matrix {
	b := bucketFor(rows * cols)
	if b < 0 {
		return New(rows, cols)
	}
	want := 1 << b
	for i := len(f.free) - 1; i >= 0; i-- {
		if m := f.free[i]; cap(m.Data) == want {
			last := len(f.free) - 1
			f.free[i], f.free[last] = f.free[last], nil
			f.free = f.free[:last]
			return m.reshape(rows, cols)
		}
	}
	return GetPooled(rows, cols)
}

// Put keeps m for a later Get, under PutPooled's rules.
func (f *FreeList) Put(m *Matrix) {
	if m.retire() >= 0 {
		f.free = append(f.free, m)
	}
}

// Drain moves every kept matrix to the shared pools.
func (f *FreeList) Drain() {
	for i, m := range f.free {
		bufPools[bucketFor(cap(m.Data))].Put(m)
		f.free[i] = nil
	}
	f.free = f.free[:0]
}
