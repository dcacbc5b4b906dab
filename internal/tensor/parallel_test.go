package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// products holds the outputs of one of each row-parallel product.
type products struct{ mm, lr, ta, acc, scratch, sp *Matrix }

func sameBits(got, want *Matrix) bool {
	for i, v := range got.Data {
		if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
			return false
		}
	}
	return got.SameShape(want)
}

func (p *products) same(q *products) bool {
	return sameBits(p.mm, q.mm) && sameBits(p.lr, q.lr) && sameBits(p.ta, q.ta) &&
		sameBits(p.acc, q.acc) && sameBits(p.sp, q.sp)
}

// raceDetector is set under -race (race_test.go).
var raceDetector bool

// fillParkCaches parks hundreds of goroutines on one channel at once and
// releases them, leaving the runtime's caches of parked-goroutine records full.
func fillParkCaches() {
	release := make(chan struct{})
	var parked, done sync.WaitGroup
	for range 512 {
		parked.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			parked.Done()
			<-release
		}()
	}
	parked.Wait()
	close(release)
	done.Wait()
}

// TestConcurrentProductsShareHelpers: eight goroutines multiplying at once at
// GOMAXPROCS 2 — more callers than helpers, so most find the helper busy and
// run every block themselves — each get the serial bits of every job kind, and
// no product allocates, whether a helper takes a block or none is free.
func TestConcurrentProductsShareHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	a, b, d := RandNormal(rng, 128, 96, 1), RandNormal(rng, 96, 112, 1), RandNormal(rng, 128, 112, 1)
	bias := RandNormal(rng, 1, 112, 1)
	s, x := SparseFromDense(randomDAGDense(rng, 192, 0.4)), RandNormal(rng, 192, 64, 1)
	segs := []int{0, 50, 50, 128}
	if s.NNZ()*x.Cols < parallelThreshold || a.Rows*a.Cols*b.Cols < parallelThreshold {
		t.Fatal("every product must cross parallelThreshold")
	}
	newProducts := func() *products {
		return &products{New(128, 112), New(128, 112), New(96, 112), New(96, 112), New(96, 112), New(192, 64)}
	}
	run := func(p *products) {
		MatMulInto(a, b, p.mm)
		LinearReLUInto(a, b, bias, p.lr)
		MatMulTransAInto(a, d, p.ta)
		clear(p.acc.Data)
		MatMulTransASegAcc(a, d, segs, p.scratch, p.acc)
		SpMMInto(s, x, p.sp)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := newProducts()
	run(want)
	runtime.GOMAXPROCS(2)

	const callers, rounds = 8, 10
	got := make([]*products, callers)
	for i := range got {
		got[i] = newProducts()
		run(got[i]) // makes the helper
	}
	// concurrently runs every caller's rounds at once and returns the
	// allocations made meanwhile. The callers start and finish on spin flags,
	// which park nobody.
	concurrently := func() uint64 {
		var started atomic.Bool
		var finished atomic.Int32
		wrong := make([]int, callers)
		for i, p := range got {
			go func() {
				for !started.Load() {
					runtime.Gosched()
				}
				for range rounds {
					run(p)
					if !p.same(want) {
						wrong[i]++
					}
				}
				finished.Add(1)
			}()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		started.Store(true)
		for finished.Load() < callers {
			runtime.Gosched()
		}
		runtime.ReadMemStats(&after)
		for i, n := range wrong {
			if n > 0 {
				t.Errorf("caller %d: %d of %d rounds diverge from the serial bits", i, n, rounds)
			}
		}
		return after.Mallocs - before.Mallocs
	}
	// A caller parked on a helper's done channel takes the runtime's record of
	// a parked goroutine (a sudog) from its P's cache, and may be woken on the
	// other P, whose cache then keeps it; a cache that runs dry allocates one.
	// Parking a few hundred goroutines at once first fills the caches, and the
	// least of three runs must read 0: an allocation in the products shows in
	// every run.
	concurrently()
	fillParkCaches()
	var runs []uint64
	for range 3 {
		if runs = append(runs, concurrently()); runs[len(runs)-1] == 0 {
			break
		}
	}
	if slices.Min(runs) != 0 && !raceDetector { // the race runtime allocates beside the program
		t.Errorf("%v allocations in runs of %d rounds of %d concurrent callers, want 0 in one", runs, rounds, callers)
	}

	// Every helper busy: the test holds them all, so a product finds none
	// free and runs every block on its caller.
	var held []*helper
	for h := takeHelper(0); h != nil; h = takeHelper(0) {
		held = append(held, h)
	}
	if len(held) == 0 {
		t.Fatal("no helper was made at GOMAXPROCS 2")
	}
	p := newProducts()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(p)
	runtime.ReadMemStats(&after)
	for _, h := range held {
		putHelper(h)
	}
	if !p.same(want) {
		t.Error("with every helper busy, the products diverge from the serial bits")
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("with every helper busy, the products made %d allocations, want 0", n)
	}
}
