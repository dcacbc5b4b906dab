package tensor

import (
	"math/rand"
	"testing"
)

func TestBucketForClasses(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := bucketFor(n); got != want {
			t.Fatalf("bucketFor(%d) = %d, want %d", n, got, want)
		}
	}
	if bucketFor(1<<maxPoolBucket+1) != -1 {
		t.Fatal("oversized buffers must not pool")
	}
}

func TestGetPooledIsZeroedAfterDirtyPut(t *testing.T) {
	m := GetPooled(4, 5)
	for i := range m.Data {
		m.Data[i] = 42
	}
	PutPooled(m)
	if len(m.Data) != 0 || m.Rows >= 0 {
		t.Fatal("PutPooled must leave the matrix unusable")
	}
	PutPooled(m) // a second Put must not pool the matrix twice
	// Whether or not the next Get recycles the same buffer, it must be zero.
	n := GetPooled(3, 7)
	for i, v := range n.Data {
		if v != 0 {
			t.Fatalf("recycled buffer not zeroed at %d: %v", i, v)
		}
	}
	PutPooled(n)
}

func TestPutPooledDropsForeignBuffers(t *testing.T) {
	// Buffers whose capacity is not a pool size class (plain New/FromSlice
	// allocations) must be silently dropped, not corrupt a pool class.
	m := &Matrix{Rows: 1, Cols: 3, Data: make([]float64, 3, 3)}
	PutPooled(m)
	if m.Data != nil {
		t.Fatal("foreign buffer should still be detached")
	}
	PutPooled(nil) // must not panic
}

func TestPooledMatrixBehavesLikeNew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandNormal(rng, 8, 8, 1)
	b := RandNormal(rng, 8, 8, 1)
	want := MatMul(a, b)
	out := GetPooled(8, 8)
	MatMulInto(a, b, out)
	if !out.Equal(want) {
		t.Fatal("MatMulInto into a pooled matrix diverges")
	}
	PutPooled(out)
}

// TestPooledRoundTripAllocatesNothing: what the pool recycles is the *Matrix,
// so neither Get (no fresh header) nor Put (no boxed slice header) allocates.
// The first round trip may have to make the buffer; AllocsPerRun's warm-up
// call absorbs it.
func TestPooledRoundTripAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(200, func() { PutPooled(GetPooled(5, 7)) }); n != 0 {
		t.Fatalf("shared pool: %v allocations per Get/Put round trip, want 0", n)
	}
	var f FreeList
	if n := testing.AllocsPerRun(200, func() { f.Put(f.Get(5, 7)) }); n != 0 {
		t.Fatalf("free list: %v allocations per Get/Put round trip, want 0", n)
	}
}

func TestUseAfterPutIsDetected(t *testing.T) {
	for name, put := range map[string]func(*Matrix){"shared": PutPooled, "free list": new(FreeList).Put} {
		m := GetPooled(2, 3)
		put(m)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: writing through a matrix after Put did not panic", name)
				}
			}()
			m.Set(0, 0, 1)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: an op on a matrix after Put did not panic", name)
				}
			}()
			AddInPlace(m, New(2, 3))
		}()
	}
}

// TestFreeListKeepsBuffersBySizeClass: a kept buffer serves any shape of its
// size class, zeroed; other classes fall through to the shared pools; Drain
// empties the list.
func TestFreeListKeepsBuffersBySizeClass(t *testing.T) {
	var f FreeList
	m := f.Get(4, 5) // class 32
	for i := range m.Data {
		m.Data[i] = 7
	}
	f.Put(m)
	if other := f.Get(8, 8); other == m {
		t.Fatal("a 64-float request was served from the 32-float class")
	}
	got := f.Get(3, 7) // 21 floats: class 32 again
	if got != m {
		t.Fatal("the kept buffer was not reused for a shape of its size class")
	}
	if got.Rows != 3 || got.Cols != 7 || len(got.Data) != 21 {
		t.Fatalf("reused matrix is %dx%d with %d values", got.Rows, got.Cols, len(got.Data))
	}
	for i, v := range got.Data {
		if v != 0 {
			t.Fatalf("reused buffer not zeroed at %d: %v", i, v)
		}
	}
	f.Put(got)
	f.Put(New(1, 3)) // foreign capacity: dropped, not kept
	f.Drain()
	if len(f.free) != 0 {
		t.Fatalf("%d matrices left after Drain", len(f.free))
	}
}
