package tensor

import "testing"

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

func TestPutPooledDropsForeignBuffers(t *testing.T) {
	// Buffers whose capacity is not a size class (plain New/FromSlice
	// allocations) must be silently dropped, not corrupt a class.
	var f FreeList
	m := &Matrix{Rows: 1, Cols: 3, Data: make([]float64, 3, 3)}
	f.Put(m)
	if m.Data != nil || len(f.free) != 0 {
		t.Fatal("a foreign buffer must be detached and not kept")
	}
	f.Put(nil) // must not panic
}

// TestPooledRoundTripAllocatesNothing: what a free list keeps is the
// *Matrix, so neither Get (no fresh header) nor Put (no boxed slice header)
// allocates. The first round trip has to make the buffer; AllocsPerRun's
// warm-up call absorbs it.
func TestPooledRoundTripAllocatesNothing(t *testing.T) {
	var f FreeList
	if n := testing.AllocsPerRun(200, func() { f.Put(f.Get(5, 7)) }); n != 0 {
		t.Fatalf("free list: %v allocations per Get/Put round trip, want 0", n)
	}
}

func TestUseAfterPutIsDetected(t *testing.T) {
	var f FreeList
	m := f.Get(2, 3)
	f.Put(m)
	if len(m.Data) != 0 || m.Rows >= 0 {
		t.Fatal("Put must leave the matrix unusable")
	}
	f.Put(m) // a second Put must not keep the matrix twice
	if len(f.free) != 1 {
		t.Fatalf("%d matrices kept after putting one twice", len(f.free))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("writing through a matrix after Put did not panic")
			}
		}()
		m.Set(0, 0, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("an op on a matrix after Put did not panic")
			}
		}()
		AddInPlace(m, New(2, 3))
	}()
}

// TestFreeListKeepsBuffersBySizeClass: a kept buffer serves any shape of its
// size class, zeroed by Get and as it was left by GetDirty; another class gets
// a fresh buffer of its own class.
func TestFreeListKeepsBuffersBySizeClass(t *testing.T) {
	var f FreeList
	m := f.Get(4, 5) // class 32
	for i := range m.Data {
		m.Data[i] = 7
	}
	f.Put(m)
	if other := f.Get(8, 8); other == m || cap(other.Data) != 64 {
		t.Fatalf("a 64-float request was served a buffer of %d floats", cap(other.Data))
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
	for i := range got.Data {
		got.Data[i] = 9
	}
	f.Put(got)
	if dirty := f.GetDirty(4, 8); dirty != got || dirty.Data[20] != 9 {
		t.Fatal("GetDirty did not hand the kept buffer back as its last user left it")
	}
	f.Put(got)
	f.Put(New(1, 3)) // foreign capacity: dropped, not kept
	if len(f.free) != 1 {
		t.Fatalf("%d matrices kept, want the one of the 32-float class", len(f.free))
	}
}
