package sim

import "math/rand"

// RowsHeld is the number of task rows the state's slab holds, live or not.
func (s *State) RowsHeld() int { return s.tasks.Held() }

// Logged returns the length and capacity of the state's placement log.
func (s *State) Logged() (n, room int) { return len(s.log), cap(s.log) }

// RunKey returns the key of a run whose Options.Rng is seeded with seed: the
// generator's first Uint64.
func RunKey(seed int64) uint64 { return rand.New(rand.NewSource(seed)).Uint64() }

// KeyedZ returns the standard normal duration draw of attempt a of task t in
// a run keyed key.
func KeyedZ(key uint64, t, a int) float64 {
	n := noise{key: key}
	return n.z(t, uint16(a))
}
