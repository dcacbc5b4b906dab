package core

import (
	"readys/internal/tensor"
)

// logChunkLen is the length, in elements, of one chunk of an episode log's
// arenas (8 kB of float64 or int): large against one cut (a window's
// adjacency is ≈ 100 entries at Cholesky T=6), small against what a log
// holds idle past its last cut. See EXPERIMENTS.md → "Training cost" for the
// measurement behind the value.
const logChunkLen = 1024

// arena cuts slices out of fixed-size chunks. A chunk is never moved or
// resized, so a cut stays valid — and may be aliased — until reset, and
// growing allocates one more chunk without copying what is there. A cut's
// contents are whatever the chunk held: callers overwrite all of it.
type arena[T any] struct {
	chunks [][]T // len(chunk) is how much of it is cut
	cur    int   // the chunk being cut from
}

func (a *arena[T]) alloc(n int) []T {
	for ; a.cur < len(a.chunks); a.cur++ {
		c := a.chunks[a.cur]
		if lo := len(c); lo+n <= cap(c) {
			a.chunks[a.cur] = c[:lo+n]
			return c[lo : lo+n : lo+n]
		}
	}
	// A request beyond a chunk gets a chunk of its own size.
	a.chunks = append(a.chunks, make([]T, n, max(n, logChunkLen)))
	return a.chunks[a.cur][:n:n]
}

func (a *arena[T]) put(src []T) []T {
	dst := a.alloc(len(src))
	copy(dst, src)
	return dst
}

// reset forgets every cut and keeps the chunks.
func (a *arena[T]) reset() {
	for i, c := range a.chunks {
		a.chunks[i] = c[:0]
	}
	a.cur = 0
}

// EpisodeLog records the decisions of one training episode, each piece of a
// decision state once: consecutive decisions see almost the same window, so
// what the log keeps per decision is only what differs between them.
//
//   - Per (task, GraphEpoch): the task-feature columns of the task's row.
//     Within one graph epoch fillStaticTaskFeatures writes the same bits for
//     a task whatever the decision; the three dynamic columns in the middle
//     are stored as +0.
//   - Per window (the node list or the graph epoch changed): the node list,
//     which stored row each node reads, and the CSR adjacency.
//   - Per decision (a Step): the resource-context vector once (not broadcast
//     into the rows), the ready rows, the running rows and their remaining
//     times, AllowIdle, the action and the forward's three scalars. That is
//     all of the dynamic columns ready/running/remaining:
//     fillDynamicTaskFeatures writes ready = 1 exactly on the rows it reports
//     ready, running = 1 and a remaining time on the running rows, and +0
//     everywhere else.
//
// State is the one function that reads this layout back. It only copies and
// writes those 1s, so every bit of a materialised state is a bit the encoder
// wrote.
//
// A log is written by one recording Policy at a time (Policy.Log) and reused
// episode after episode: Reset keeps every buffer, so a trainer that owns its
// logs allocates while its longest episode grows and not afterwards. A log is
// not safe for concurrent use.
type EpisodeLog struct {
	floats arena[float64]
	ints   arena[int]

	// The record lists are plain slices, a few kB each: Policy.Steps hands
	// the steps out as one []Step.
	steps   []Step
	windows []logWindow
	// static holds the stored task-feature rows; staticOf[t] says which one
	// belongs to task t at which graph epoch (row is 1 + the index, 0 none).
	static   [][]float64
	staticOf []struct{ epoch, row int }
}

// logWindow is one version of the window: which tasks it holds, where their
// task features are stored, and how they are connected.
type logWindow struct {
	epoch  int
	nodes  []int
	static []int // static[row] indexes EpisodeLog.static
	norm   tensor.Sparse
}

// NewEpisodeLog returns an empty log.
func NewEpisodeLog() *EpisodeLog { return &EpisodeLog{} }

// Reset empties the log for the next episode, keeping its memory. States
// materialised from it and the Steps it handed out are void afterwards.
func (l *EpisodeLog) Reset() {
	l.floats.reset()
	l.ints.reset()
	l.steps, l.windows, l.static = l.steps[:0], l.windows[:0], l.static[:0]
	clear(l.staticOf)
}

// Steps returns the recorded decisions, valid until the next Reset.
func (l *EpisodeLog) Steps() []Step { return l.steps }

// Rows returns the number of window rows decision i saw.
func (l *EpisodeLog) Rows(i int) int { return len(l.windows[l.steps[i].window].nodes) }

// record appends one decision: the state as the encoder left it (es may
// alias encoder buffers; everything kept is copied), the action taken and the
// scalars of the forward that chose it.
func (l *EpisodeLog) record(es *EncodedState, action int, logProb, entropy, value float64) {
	w := len(l.windows) - 1
	if w < 0 || l.windows[w].epoch != es.graphEpoch || !intsEqual(l.windows[w].nodes, es.Nodes) {
		l.windows = append(l.windows, l.newWindow(es))
		w++
	}
	n := 0
	for row := range es.Nodes {
		if es.X.Row(row)[featRunning] == 1 {
			n++
		}
	}
	running, remaining := l.ints.alloc(n), l.floats.alloc(n)
	n = 0
	for row := range es.Nodes {
		if rf := es.X.Row(row); rf[featRunning] == 1 {
			running[n], remaining[n] = row, rf[featRemaining]
			n++
		}
	}
	l.steps = append(l.steps, Step{
		Action: action, LogProb: logProb, Entropy: entropy, Value: value,
		Forward: releasedForward,
		window:  w,
		proc:    l.floats.put(es.Proc.Data),
		ready:   l.ints.put(es.ReadyRows),
		running: running, remaining: remaining,
		allowIdle: es.AllowIdle,
	})
}

// newWindow stores the window es describes, and the task features of every
// row whose task has none stored at es's graph epoch.
func (l *EpisodeLog) newWindow(es *EncodedState) logWindow {
	w := logWindow{
		epoch:  es.graphEpoch,
		nodes:  l.ints.put(es.Nodes),
		static: l.ints.alloc(len(es.Nodes)),
		norm: tensor.Sparse{
			Rows: es.Norm.Rows, Cols: es.Norm.Cols,
			RowPtr: l.ints.put(es.Norm.RowPtr), Col: l.ints.put(es.Norm.Col), Val: l.floats.put(es.Norm.Val),
		},
	}
	// Nodes are sorted: the last one is the largest task ID.
	if n := len(w.nodes); n > 0 && w.nodes[n-1] >= len(l.staticOf) {
		l.staticOf = growTo(l.staticOf, w.nodes[n-1]+1, 2*cap(l.staticOf))
	}
	for row, t := range w.nodes {
		ref := &l.staticOf[t]
		if ref.row == 0 || ref.epoch != es.graphEpoch {
			rf := l.floats.put(es.X.Row(row)[:numTaskFeatures])
			rf[featReady], rf[featRunning], rf[featRemaining] = 0, 0, 0
			l.static = append(l.static, rf)
			ref.epoch, ref.row = es.graphEpoch, len(l.static)
		}
		w.static[row] = ref.row - 1
	}
	return w
}

// State materialises decision i into es and returns es. Each row of X is
// rebuilt as stored task features (dynamic columns +0) ∪ the decision's
// resource context, then the decision's ready rows get ready = 1 and its
// running rows running = 1 and their remaining times; es's X buffer is
// reused, and everything else aliases the log, so the state is valid until es
// is materialised into again or the log is Reset. A zero EncodedState is a
// fine es.
func (l *EpisodeLog) State(i int, es *EncodedState) *EncodedState {
	st := &l.steps[i]
	w := &l.windows[st.window]
	if es.X == nil {
		es.X, es.Proc = &tensor.Matrix{}, &tensor.Matrix{}
	}
	resizeMatrix(es.X, len(w.nodes), numTaskFeatures+len(st.proc))
	for row, ref := range w.static {
		rf := es.X.Row(row)
		copy(rf, l.static[ref])
		copy(rf[numTaskFeatures:], st.proc)
	}
	for _, row := range st.ready {
		es.X.Row(row)[featReady] = 1
	}
	for k, row := range st.running {
		rf := es.X.Row(row)
		rf[featRunning], rf[featRemaining] = 1, st.remaining[k]
	}
	*es.Proc = tensor.Matrix{Rows: 1, Cols: len(st.proc), Data: st.proc}
	es.Nodes, es.Norm, es.ReadyRows = w.nodes, &w.norm, st.ready
	es.ReadyTasks = es.ReadyTasks[:0]
	for _, row := range st.ready {
		es.ReadyTasks = append(es.ReadyTasks, w.nodes[row])
	}
	es.AllowIdle = st.allowIdle
	es.graphEpoch = w.epoch
	return es
}

// growTo returns xs at length n with its contents kept; when it must grow, it
// makes room for max(n, room) elements.
func growTo[T any](xs []T, n, room int) []T {
	if n <= cap(xs) {
		return xs[:n]
	}
	out := make([]T, n, max(n, room))
	copy(out, xs)
	return out
}
