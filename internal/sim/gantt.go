package sim

import (
	"fmt"
	"io"
	"sort"

	"readys/internal/platform"
	"readys/internal/taskgraph"
)

// WriteGanttCSV writes the schedule as CSV rows
// resource,resource_type,task,kernel,start,end — one per placement, sorted by
// resource then start time — suitable for plotting a Gantt chart.
func WriteGanttCSV(w io.Writer, g *taskgraph.Graph, plat platform.Platform, res Result) error {
	trace := append([]Placement(nil), res.Trace...)
	sort.Slice(trace, func(a, b int) bool {
		if trace[a].Resource != trace[b].Resource {
			return trace[a].Resource < trace[b].Resource
		}
		return trace[a].Start < trace[b].Start
	})
	if _, err := fmt.Fprintln(w, "resource,resource_type,task,kernel,start,end"); err != nil {
		return err
	}
	for _, p := range trace {
		task := g.Tasks[p.Task]
		rt := plat.Resources[p.Resource].Type
		if _, err := fmt.Fprintf(w, "%d,%s,%s,%s,%.3f,%.3f\n",
			p.Resource, rt, task.Name, g.KernelNames[task.Kernel], p.Start, p.End); err != nil {
			return err
		}
	}
	return nil
}
