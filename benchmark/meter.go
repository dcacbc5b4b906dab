package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// meter watches the process over a measured phase: bytes and objects
// allocated, the live heap at the end of each round, CPU time, GC work and the
// goroutine count, read from runtime/metrics and getrusage.
type meter struct {
	startAlloc, startObjs, startGC uint64
	startPause                     float64
	startCPU                       time.Duration

	stop chan struct{}
	done sync.WaitGroup

	peakLive       uint64 // largest roundEnd reading
	peakGoroutines int    // sampler goroutine only, until finish
}

type meterResult struct {
	allocBytes, mallocs uint64
	peakLiveBytes       uint64
	cpu                 time.Duration
	gcCycles            uint64
	gcPauseMs           float64
	peakGoroutines      int
}

const (
	metricAllocBytes = "/gc/heap/allocs:bytes"
	metricAllocObjs  = "/gc/heap/allocs:objects"
	metricLiveBytes  = "/gc/heap/live:bytes"
	metricGCCycles   = "/gc/cycles/total:gc-cycles"
)

func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func gcPauseTotalMs() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.PauseTotalNs) / 1e6
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// startMeter begins a measured phase.
func startMeter() *meter {
	m := &meter{
		startAlloc: readUint(metricAllocBytes),
		startObjs:  readUint(metricAllocObjs),
		startGC:    readUint(metricGCCycles),
		startPause: gcPauseTotalMs(),
		startCPU:   processCPU(),
		stop:       make(chan struct{}),
	}
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			if n := runtime.NumGoroutine(); n > m.peakGoroutines {
				m.peakGoroutines = n
			}
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// liveHeap collects garbage and returns the bytes the collection found live.
// It collects twice: what the program's sync.Pools hold survives one
// collection, and how much that is depends on when the last background cycle
// ran (3 % of a training run's heap, from run to run of one seed).
//
// The free-running gauge is no substitute: it is written when a background
// cycle happens to end, so its maximum over a run depends on where the cycles
// fell (3-5 % from run to run, as much as the metric's bound).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return readUint(metricLiveBytes)
}

// roundEnd records the live heap at the end of a round, while everything the
// system under test keeps between requests is still referenced.
func (m *meter) roundEnd() { m.noteLive(liveHeap()) }

func (m *meter) noteLive(live uint64) {
	if live > m.peakLive {
		m.peakLive = live
	}
}

// finish ends the phase and returns what it cost.
func (m *meter) finish() meterResult {
	close(m.stop)
	m.done.Wait()
	return meterResult{
		allocBytes:     readUint(metricAllocBytes) - m.startAlloc,
		mallocs:        readUint(metricAllocObjs) - m.startObjs,
		peakLiveBytes:  m.peakLive,
		cpu:            processCPU() - m.startCPU,
		gcCycles:       readUint(metricGCCycles) - m.startGC,
		gcPauseMs:      gcPauseTotalMs() - m.startPause,
		peakGoroutines: m.peakGoroutines,
	}
}

// calibMat is the calibration kernel: five 64×64 matrix products, under a
// millisecond of floating-point work on 96 kB of data, owned by the benchmark.
// It returns its wall time in ms. A neighbour that keeps the core's other
// hardware thread or the shared caches busy shows in it at once.
func calibMat() float64 {
	const n = 64
	var a, b, c [n * n]float64
	start := time.Now()
	for i := range a {
		a[i] = float64(i%7) + 0.5
		b[i] = float64(i%5) + 0.25
	}
	for r := 0; r < 5; r++ {
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				aik := a[i*n+k]
				row := b[k*n : k*n+n]
				out := c[i*n : i*n+n]
				for j := range out {
					out[j] += aik * row[j]
				}
			}
		}
	}
	elapsed := time.Since(start)
	calibSink = c[5]
	return float64(elapsed) / float64(time.Millisecond)
}

var calibSink float64

// hostCalib marks a disturbed run. The workload calls sample between rounds,
// while nothing of the program runs; each sample is the median of five kernel
// runs. Nothing is corrected with it: a run whose samples lie far apart, or
// far above another run's, was measured on a busy host and says so.
type hostCalib struct{ ms []float64 }

func (h *hostCalib) sample() {
	runs := make([]float64, 5)
	for i := range runs {
		runs[i] = calibMat()
	}
	h.ms = append(h.ms, median(runs))
}

// summary is the median sample and max ÷ min.
func (h *hostCalib) summary() (medianMs, maxOverMin float64) {
	if len(h.ms) == 0 {
		return 0, 0
	}
	s := sortedCopy(h.ms)
	return median(s), s[len(s)-1] / s[0]
}
