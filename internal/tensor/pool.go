package tensor

import "math/bits"

// Buffer recycling for the intermediates of gradient tapes.
//
// A gradient tape (autograd.NewTape, the training update's) allocates the
// same handful of matrix shapes pass after pass. It draws them from its own
// FreeList, which keeps what the tape puts back and makes a fresh buffer
// when it has none of the size asked for. Deciding — serving, rollouts,
// streams — runs on inference tapes, which keep one buffer per output
// position instead (autograd.NewInferenceTape) and never touch a list.
//
// Size classes are powers of two, so a kept buffer serves every shape in its
// class and the list never fragments across the many slightly-different
// sub-DAG sizes; a tape whose passes fall into two classes keeps a set of
// buffers in each. What is kept is the *Matrix itself, header and backing
// slice together, so a Get/Put round trip allocates nothing.
//
// Recycling is strictly opt-in: New remains a plain allocation, and a
// recycled matrix behaves exactly like any other Matrix. Callers own the
// lifetime — returning a buffer that is still referenced elsewhere is the
// caller's bug, exactly as with any free list. FreeList.Put leaves the matrix
// at -1 x -1 with an empty Data, so a use after Put fails a shape or bounds
// check for as long as the matrix has not been handed out again.

// maxPoolBucket bounds the kept size classes: buffers beyond 2^22 floats
// (32 MiB) are handed to the garbage collector instead of being retained.
const maxPoolBucket = 22

// bucketFor returns the smallest power-of-two size class holding n floats,
// or -1 when n is too large to keep.
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

// reshape hands a recycled matrix out again: rows x cols, zeroed when zero is
// set and otherwise holding whatever its last user left.
func (m *Matrix) reshape(rows, cols int, zero bool) *Matrix {
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
	if zero {
		clear(m.Data)
	}
	return m
}

// retire detaches m from its user and reports whether its buffer is worth
// keeping: not for a nil or already retired matrix, nor for a capacity that
// is not a size class (a plain New or FromSlice allocation, which is left to
// the GC).
func (m *Matrix) retire() bool {
	if m == nil || m.Rows < 0 {
		return false
	}
	c := cap(m.Data)
	if b := bucketFor(c); c == 0 || b < 0 || 1<<b != c {
		m.Data = nil
		return false
	}
	m.Rows, m.Cols, m.Data = -1, -1, m.Data[:0]
	return true
}

// FreeList is a single-goroutine free list: Put keeps a matrix, Get prefers a
// kept one of the right size class and otherwise makes a buffer of the whole
// class, so that it can be kept. The zero value is an empty list.
type FreeList struct {
	free []*Matrix
}

// Get returns a zeroed rows x cols matrix, reusing a kept buffer when one of
// its size class is on the list.
func (f *FreeList) Get(rows, cols int) *Matrix { return f.get(rows, cols, true) }

// GetDirty is Get for a caller that writes every entry before it reads one: a
// kept buffer comes back holding what its last user left, not zeroed.
func (f *FreeList) GetDirty(rows, cols int) *Matrix { return f.get(rows, cols, false) }

func (f *FreeList) get(rows, cols int, zero bool) *Matrix {
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
			return m.reshape(rows, cols, zero)
		}
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols, want)}
}

// Put keeps m for a later Get. The matrix must not be used afterwards;
// putting it twice is a no-op. Matrices whose capacity is not a size class
// (e.g. built with New or FromSlice) are detached and dropped.
func (f *FreeList) Put(m *Matrix) {
	if m.retire() {
		f.free = append(f.free, m)
	}
}
