package taskgraph

// LiveRows is per-task storage, indexed by task ID, for a graph whose oldest
// tasks retire: a stream's union, where every task of a finished job is done
// for good. It holds a row for each task from the first live one, Live(), up
// to Len(). Retire drops the rows below a new live point; the slab compacts in
// place once the retired prefix is half of it, and grows from its live size
// rather than from every task the graph ever held, so it stays within a small
// multiple of the live tasks however long the graph grows. A row is zero when
// Cover first exposes it.
//
// The zero value covers no task.
type LiveRows[T any] struct {
	lo   int // task ID of rows[0]
	live int // first live task ID; rows[:live-lo] are retired
	rows []T
}

// Reset forgets every row, keeping the storage.
func (r *LiveRows[T]) Reset() { r.lo, r.live, r.rows = 0, 0, r.rows[:0] }

// Len is one past the last task covered.
func (r *LiveRows[T]) Len() int { return r.lo + len(r.rows) }

// Live is the first task with a row.
func (r *LiveRows[T]) Live() int { return r.live }

// Held is the number of rows of storage the slab holds, live or not.
func (r *LiveRows[T]) Held() int { return cap(r.rows) }

// At returns task t's row; t must lie in [Live(), Len()).
func (r *LiveRows[T]) At(t int) *T { return &r.rows[t-r.lo] }

// Retire drops the rows of every task below from (at most Len()).
func (r *LiveRows[T]) Retire(from int) {
	from = min(from, r.Len())
	if from <= r.live {
		return
	}
	r.live = from
	if dead := from - r.lo; 2*dead >= len(r.rows) {
		r.compact()
	}
}

// compact moves the live rows to the front of the slab.
func (r *LiveRows[T]) compact() {
	if r.live == r.lo {
		return
	}
	n := copy(r.rows, r.rows[r.live-r.lo:])
	r.rows, r.lo = r.rows[:n], r.live
}

// Cover extends the rows to every task below n, each new one zero. When the
// slab is full it compacts first, and grows only if that is not enough: to
// twice the live rows, but with no row for a task at or above limit, the most
// tasks the graph holds without growing itself (n for a frozen graph).
func (r *LiveRows[T]) Cover(n, limit int) {
	old := len(r.rows)
	if n-r.lo <= old {
		return
	}
	if n-r.lo > cap(r.rows) {
		r.compact()
		if n-r.lo > cap(r.rows) {
			grown := make([]T, len(r.rows), max(n, min(r.lo+2*(n-r.lo), limit))-r.lo)
			copy(grown, r.rows)
			r.rows = grown
		}
		old = len(r.rows)
	}
	r.rows = r.rows[:n-r.lo]
	clear(r.rows[old:])
}
