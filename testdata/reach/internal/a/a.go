// Package a holds one case of each finding the reachability check makes.
package a

// Live.Len is used by the command.
type Live struct{ n int }

func (l Live) Len() int { return l.n }

// Dead.Len is used only by a test, while Live.Len, of the same name, is used.
type Dead struct{ n int }

func (d Dead) Len() int { return d.n }

// NewDead is used by the command, so Dead itself is reached.
func NewDead(n int) Dead { return Dead{n} }

// Config.Knob is read but set by no non-test code; Config.Size is set.
type Config struct {
	Size int
	Knob int
}

func (c Config) Total() int { return c.Size + c.Knob }

// Runner.Run is used only through the interface Runner implements.
type Runner interface{ Run() int }

type Impl struct{}

func (Impl) Run() int { return 1 }
