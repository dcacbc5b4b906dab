package sim

// RowsHeld is the number of task rows the state's slab holds, live or not.
func (s *State) RowsHeld() int { return s.tasks.Held() }

// Logged returns the length and capacity of the state's placement log.
func (s *State) Logged() (n, room int) { return len(s.log), cap(s.log) }
