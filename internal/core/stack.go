package core

import (
	"readys/internal/tensor"
)

// StateBatch stacks decision states for one tape pass at batch width d
// (Agent.ForwardBatch): the feature matrices row-stacked, the normalised
// adjacencies as one block-diagonal CSR (blocks concatenated, column indices
// shifted by the block's first row), the ready rows shifted likewise, and the
// segment tables that say which stacked rows, candidates and actions belong
// to which state. This is how PyTorch-Geometric batches graphs; here the
// tables additionally let every reduction run state by state, so a state's
// outputs and its share of every gradient have the bits a pass over that
// state alone gives.
//
// A batch is reusable: Reset keeps the buffers, so a trainer that stacks
// episode after episode allocates only while the largest episode grows.
type StateBatch struct {
	x    tensor.Matrix
	norm tensor.Sparse
	// proc stacks the resource context of the states that allow ∅, in state
	// order; idleStates lists which states those are.
	proc       tensor.Matrix
	idleStates []int
	readyRows  []int

	// Segment tables, d+1 offsets each: rows of x per state, entries of
	// readyRows per state, actions (candidates, then ∅ when allowed) per
	// state. rowSegs is 0..d, the table of a matrix with one row per state.
	nodeSegs, readySegs, actionSegs, rowSegs []int
	// actionPerm[i] is the row of [scores; ∅ scores] holding action i of the
	// stacked action list: it interleaves each state's ∅ score after its
	// candidates' scores.
	actionPerm []int

	// single marks a batch built by wrap: one state, nil tables.
	single bool
	// skipCritic leaves the critic out (Forward.Value is nil): a policy that
	// records nothing sets it.
	skipCritic bool
	// logged is the state AppendLogged materialises a decision into.
	logged EncodedState
}

// wrap points sb at one encoded state as a width-1 batch without copying:
// every segment table is nil (one range: all rows) and no permutation is
// needed, since the one ∅ score already follows the candidates' scores.
func (sb *StateBatch) wrap(es *EncodedState) *StateBatch {
	if len(es.ReadyRows) == 0 {
		panic("core: Forward with no ready task")
	}
	sb.x, sb.norm, sb.readyRows, sb.proc, sb.single = *es.X, *es.Norm, es.ReadyRows, tensor.Matrix{}, true
	if es.AllowIdle {
		sb.proc = *es.Proc
	}
	return sb
}

// Reset empties the batch, keeping its buffers.
func (sb *StateBatch) Reset() {
	sb.x.Rows, sb.x.Data = 0, sb.x.Data[:0]
	sb.norm.Rows, sb.norm.Cols = 0, 0
	sb.norm.RowPtr, sb.norm.Col, sb.norm.Val = append(sb.norm.RowPtr[:0], 0), sb.norm.Col[:0], sb.norm.Val[:0]
	sb.proc.Rows, sb.proc.Data = 0, sb.proc.Data[:0]
	sb.idleStates, sb.readyRows, sb.actionPerm = sb.idleStates[:0], sb.readyRows[:0], sb.actionPerm[:0]
	sb.nodeSegs, sb.readySegs = append(sb.nodeSegs[:0], 0), append(sb.readySegs[:0], 0)
	sb.actionSegs, sb.rowSegs = append(sb.actionSegs[:0], 0), append(sb.rowSegs[:0], 0)
}

// Len returns the number of stacked states.
func (sb *StateBatch) Len() int {
	if sb.single {
		return 1
	}
	return max(len(sb.rowSegs)-1, 0)
}

// Rows returns the number of stacked node rows.
func (sb *StateBatch) Rows() int { return sb.x.Rows }

// ActionIndex returns the position of state i's action a in the stacked
// action list, i.e. its row in the pass's LogProbs.
func (sb *StateBatch) ActionIndex(i, a int) int {
	if sb.single {
		return a
	}
	return sb.actionSegs[i] + a
}

// Append stacks one more state, copying what it needs from es.
func (sb *StateBatch) Append(es *EncodedState) {
	if len(sb.rowSegs) == 0 {
		sb.Reset()
	}
	if len(es.ReadyRows) == 0 {
		panic("core: stacking a state with no ready task")
	}
	state, base := sb.Len(), sb.x.Rows
	n := es.X.Rows

	sb.x.Cols = es.X.Cols
	sb.x.Data = append(sb.x.Data, es.X.Data...)
	sb.x.Rows += n

	nnz := len(sb.norm.Col)
	for _, p := range es.Norm.RowPtr[1:] {
		sb.norm.RowPtr = append(sb.norm.RowPtr, nnz+p)
	}
	for _, c := range es.Norm.Col {
		sb.norm.Col = append(sb.norm.Col, base+c)
	}
	sb.norm.Val = append(sb.norm.Val, es.Norm.Val...)
	sb.norm.Rows, sb.norm.Cols = sb.x.Rows, sb.x.Rows

	for _, r := range es.ReadyRows {
		sb.readyRows = append(sb.readyRows, base+r)
	}
	if es.AllowIdle {
		sb.proc.Cols = es.Proc.Cols
		sb.proc.Data = append(sb.proc.Data, es.Proc.Data...)
		sb.proc.Rows++
		sb.idleStates = append(sb.idleStates, state)
	}
	sb.nodeSegs = append(sb.nodeSegs, sb.x.Rows)
	sb.readySegs = append(sb.readySegs, len(sb.readyRows))
	sb.actionSegs = append(sb.actionSegs, len(sb.readyRows)+len(sb.idleStates))
	sb.rowSegs = append(sb.rowSegs, state+1)
}

// AppendLogged stacks decision i of a recorded episode, materialised from
// the log (EpisodeLog.State).
func (sb *StateBatch) AppendLogged(l *EpisodeLog, i int) {
	sb.Append(l.State(i, &sb.logged))
}

// seal builds the action permutation once every state is appended; it needs
// the final candidate count, which is where the ∅ scores start.
func (sb *StateBatch) seal() {
	sb.actionPerm = sb.actionPerm[:0]
	idle := 0
	for state := 0; state < sb.Len(); state++ {
		for c := sb.readySegs[state]; c < sb.readySegs[state+1]; c++ {
			sb.actionPerm = append(sb.actionPerm, c)
		}
		if idle < len(sb.idleStates) && sb.idleStates[idle] == state {
			sb.actionPerm = append(sb.actionPerm, len(sb.readyRows)+idle)
			idle++
		}
	}
}
