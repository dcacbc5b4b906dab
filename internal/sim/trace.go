package sim

import (
	"fmt"
	"strconv"

	"readys/internal/obs"
)

// TracePID is the pid under which the simulator records every trace event.
const TracePID = 1

// setupTrace names the trace process and one lane per resource: resource r
// executes on tid == r. Lane names are stable across runs: "<Type> <id>" in
// platform order.
func setupTrace(s *State) {
	tr := s.tracer
	tr.NameProcess(TracePID, "readys-sim")
	for r, res := range s.Platform.Resources {
		tr.NameThread(TracePID, int64(r), fmt.Sprintf("%s %d", res.Type, r))
	}
}

// taskLabel returns the trace name and kernel label of a task. A job's task
// is named "jN:" and its own name and labelled after its job's family; the
// names are built here, so only a traced run pays for them.
func taskLabel(s *State, task int) (name, kernel string) {
	t := s.Graph.Tasks[task]
	if len(s.Jobs) == 0 {
		return t.Name, s.Graph.KernelNames[t.Kernel]
	}
	j := &s.Jobs[s.jobIdx(task)]
	return "j" + strconv.Itoa(j.ID) + ":" + t.Name, j.Graph.KernelNames[t.Kernel]
}

// traceAttempt records one attempt of task on resource r, from its start to
// end (its completion or its kill), as a complete slice on the resource lane.
// Simulated milliseconds map to trace microseconds. An attempt is recorded
// when it ends, so a trace holds no slice of work still running.
func traceAttempt(s *State, task, r int, end float64) {
	name, kernel := taskLabel(s, task)
	start := float64(s.StartTime(task) * 1000)
	s.tracer.Complete(name, "task", TracePID, int64(r), start, float64(end*1000)-start,
		[]obs.Attr{obs.Int(obs.KeyTask, int64(task)), obs.String(obs.KeyKernel, kernel)})
}

// Fault spans. Fault events render on the lane of the affected resource:
//   - "outage" — an X slice covering the planned unavailability window;
//   - "death"  — an i instant when the resource dies, plus a final "dead"
//     X slice from the death to the makespan emitted at end of run;
//   - "degrade" — an i instant carrying the new speed factor;
//   - "kill"   — the killed attempt's slice ends at the kill instant, marked
//     with a "kill" i instant naming the task and the fault that killed it.

// traceOutage records the outage window on the resource lane at the time the
// outage begins.
func traceOutage(s *State, r int, at, dur float64) {
	s.tracer.Complete("outage", "fault", TracePID, int64(r), at*1000, dur*1000, nil)
}

// traceDeath records the instant resource r dies. The terminal "dead" slice
// is emitted by finishTraceFaults once the makespan is known.
func traceDeath(s *State, r int, at float64) {
	s.tracer.Instant("death", "fault", TracePID, int64(r), at*1000)
}

// traceDegrade records a speed-factor change on the resource lane.
func traceDegrade(s *State, r int, at, factor float64) {
	s.tracer.Instant("degrade", "fault", TracePID, int64(r), at*1000, obs.Float(obs.KeyFactor, factor))
}

// traceKill records the killed attempt's slice and marks the kill instant
// with its cause. Must run before the kill bookkeeping resets StartTime.
func traceKill(s *State, task, r int, at float64, cause FaultKind) {
	traceAttempt(s, task, r, at)
	s.tracer.Instant("kill", "fault", TracePID, int64(r), at*1000,
		obs.Int(obs.KeyTask, int64(task)), obs.Float(obs.KeyStarted, s.StartTime(task)*1000), obs.String(obs.KeyCause, cause.String()))
}

// traceArrival records a job-arrival instant on the first resource lane
// (arrivals are platform-wide events; lane 0 keeps them on one row).
func traceArrival(s *State, job, base, tasks int) {
	s.tracer.Instant(fmt.Sprintf("arrive j%d", job), "arrival", TracePID, 0, s.Now*1000,
		obs.Int(obs.KeyJob, int64(job)), obs.Int(obs.KeyBase, int64(base)), obs.Int(obs.KeyTasks, int64(tasks)))
}

// finishTraceFaults emits, for each permanently dead resource, a "dead" X
// slice from its death to the end of the run so the loss is visible across
// the whole Gantt tail.
func finishTraceFaults(s *State) {
	for r := range s.Dead {
		if s.Dead[r] && s.Now > s.deathAt[r] {
			s.tracer.Complete("dead", "fault", TracePID, int64(r), s.deathAt[r]*1000, (s.Now-s.deathAt[r])*1000, nil)
		}
	}
}
