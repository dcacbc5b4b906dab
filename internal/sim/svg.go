package sim

import (
	"fmt"
	"io"
	"sort"

	"readys/internal/platform"
	"readys/internal/taskgraph"
)

// svgKernelColors match the DOT palette of package taskgraph.
var svgKernelColors = [taskgraph.NumKernels]string{"#e8956d", "#8fbf6f", "#7aa6c2", "#c2a878"}

// WriteGanttSVG renders the schedule as a standalone SVG Gantt chart: one
// horizontal lane per resource, one rectangle per task coloured by kernel
// type, with a time axis in milliseconds and a kernel legend. Task names are
// embedded as SVG <title> elements, so hovering in a browser identifies each
// placement.
func WriteGanttSVG(w io.Writer, g *taskgraph.Graph, plat platform.Platform, res Result) error {
	const (
		laneH   = 34
		laneGap = 8
		leftPad = 90
		topPad  = 28
		width   = 980
		axisH   = 30
		legendH = 26
	)
	if res.Makespan <= 0 {
		return fmt.Errorf("sim: cannot render empty schedule")
	}
	height := topPad + plat.Size()*(laneH+laneGap) + axisH + legendH
	scale := float64(width-leftPad-20) / res.Makespan

	trace := append([]Placement(nil), res.Trace...)
	sort.Slice(trace, func(a, b int) bool { return trace[a].Start < trace[b].Start })

	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="11">`+"\n", width, height)
	fmt.Fprintf(w, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(w, `<text x="%d" y="16" font-size="13">%s on %s — makespan %.1f ms</text>`+"\n",
		leftPad, g.Kind, plat, res.Makespan)

	// Lanes and labels.
	for r := 0; r < plat.Size(); r++ {
		y := topPad + r*(laneH+laneGap)
		fmt.Fprintf(w, `<text x="6" y="%d">%s %d</text>`+"\n", y+laneH/2+4, plat.Resources[r].Type, r)
		fmt.Fprintf(w, `<rect x="%d" y="%d" width="%d" height="%d" fill="#f4f4f4"/>`+"\n",
			leftPad, y, width-leftPad-20, laneH)
	}
	// Task rectangles.
	for _, p := range trace {
		y := topPad + p.Resource*(laneH+laneGap)
		x := leftPad + float64(p.Start*scale)
		wpx := (p.End - p.Start) * scale
		if wpx < 0.5 {
			wpx = 0.5
		}
		task := g.Tasks[p.Task]
		fmt.Fprintf(w, `<rect x="%.2f" y="%d" width="%.2f" height="%d" fill="%s" stroke="#555" stroke-width="0.4"><title>%s [%.1f, %.1f] ms</title></rect>`+"\n",
			x, y+2, wpx, laneH-4, svgKernelColors[task.Kernel], task.Name, p.Start, p.End)
	}
	// Time axis: 10 ticks.
	axisY := topPad + plat.Size()*(laneH+laneGap) + 4
	for i := 0; i <= 10; i++ {
		t := res.Makespan * float64(i) / 10
		x := leftPad + float64(t*scale)
		fmt.Fprintf(w, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="#999"/>`+"\n", x, axisY, x, axisY+4)
		fmt.Fprintf(w, `<text x="%.1f" y="%d" text-anchor="middle" fill="#555">%.0f</text>`+"\n", x, axisY+16, t)
	}
	// Legend.
	lx := leftPad
	ly := axisY + axisH
	for k := 0; k < taskgraph.NumKernels; k++ {
		fmt.Fprintf(w, `<rect x="%d" y="%d" width="12" height="12" fill="%s"/>`+"\n", lx, ly, svgKernelColors[k])
		fmt.Fprintf(w, `<text x="%d" y="%d">%s</text>`+"\n", lx+16, ly+10, g.KernelNames[k])
		lx += 24 + 9*len(g.KernelNames[k])
	}
	_, err := fmt.Fprintln(w, `</svg>`)
	return err
}
