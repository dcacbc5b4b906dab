package platform

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"readys/internal/taskgraph"
)

func TestNewPlatformLayout(t *testing.T) {
	p := New(2, 3)
	if p.Size() != 5 || p.Count(CPU) != 2 || p.Count(GPU) != 3 {
		t.Fatalf("platform layout wrong: %v", p)
	}
	// CPUs first: a resource's ID is its index.
	for i, r := range p.Resources {
		wantType := CPU
		if i >= 2 {
			wantType = GPU
		}
		if r.Type != wantType {
			t.Fatalf("resource %d type %v", i, r.Type)
		}
	}
	if p.String() != "2CPU+3GPU" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestNewPlatformRejectsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty platform should panic")
		}
	}()
	New(0, 0)
}

func TestTimingTablesUnrelatedStructure(t *testing.T) {
	// The GPU acceleration must depend on the kernel (unrelated machines):
	// panel factorisations ~2-4x, updates >10x.
	for _, kind := range []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR} {
		tt := TimingFor(kind)
		panelAccel := tt.Expected[0][CPU] / tt.Expected[0][GPU]
		if panelAccel > 5 {
			t.Fatalf("%v panel kernel acceleration %.1fx too high", kind, panelAccel)
		}
		updateAccel := tt.Expected[3][CPU] / tt.Expected[3][GPU]
		if updateAccel < 10 {
			t.Fatalf("%v update kernel acceleration %.1fx too low", kind, updateAccel)
		}
		if updateAccel <= panelAccel {
			t.Fatalf("%v accelerations not unrelated: panel %.1f update %.1f", kind, panelAccel, updateAccel)
		}
	}
}

func TestTimingPositive(t *testing.T) {
	for _, kind := range []taskgraph.Kind{
		taskgraph.Cholesky, taskgraph.LU, taskgraph.QR, taskgraph.Random,
	} {
		tt := TimingFor(kind)
		if tt.Kind != kind {
			t.Fatalf("timing kind mismatch: %v", tt.Kind)
		}
		for k := 0; k < taskgraph.NumKernels; k++ {
			for rt := ResourceType(0); rt < NumResourceTypes; rt++ {
				if tt.Expected[k][rt] <= 0 {
					t.Fatalf("%v kernel %d on %v non-positive", kind, k, rt)
				}
			}
		}
	}
}

func TestMaxAndMeanExpected(t *testing.T) {
	tt := TimingFor(taskgraph.Cholesky)
	if tt.MaxExpected() != 88 {
		t.Fatalf("MaxExpected = %v", tt.MaxExpected())
	}
	want := (16.0 + 8.0) / 2
	if got := (tt.Expected[taskgraph.KPOTRF][CPU] + tt.Expected[taskgraph.KPOTRF][GPU]) / 2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean expected POTRF = %v", got)
	}
}

func TestSampleDurationNoiseFreeDeterministic(t *testing.T) {
	tt := TimingFor(taskgraph.Cholesky)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		d := tt.SampleDuration(rng.NormFloat64(), taskgraph.KGEMM, CPU, 0)
		if d != 88 {
			t.Fatalf("sigma=0 sample = %v, want 88", d)
		}
	}
}

func TestSampleDurationNonNegativeProperty(t *testing.T) {
	tt := TimingFor(taskgraph.QR)
	rng := rand.New(rand.NewSource(2))
	f := func(k8 uint8, rt8 uint8, sig float64) bool {
		k := taskgraph.Kernel(k8 % taskgraph.NumKernels)
		rt := ResourceType(rt8 % uint8(NumResourceTypes))
		sigma := math.Mod(math.Abs(sig), 2)
		if math.IsNaN(sigma) {
			sigma = 0.5
		}
		d := tt.SampleDuration(rng.NormFloat64(), k, rt, sigma)
		return d >= 0 && !math.IsNaN(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleDurationMeanAndSpread(t *testing.T) {
	tt := TimingFor(taskgraph.Cholesky)
	rng := rand.New(rand.NewSource(3))
	const n = 20000
	sigma := 0.3
	e := tt.Expected[taskgraph.KGEMM][CPU]
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		d := tt.SampleDuration(rng.NormFloat64(), taskgraph.KGEMM, CPU, sigma)
		sum += d
		sumsq += d * d
	}
	mean := sum / n
	std := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean-e) > 0.02*e {
		t.Fatalf("sample mean %v, want ~%v", mean, e)
	}
	if math.Abs(std-sigma*e) > 0.05*sigma*e {
		t.Fatalf("sample std %v, want ~%v", std, sigma*e)
	}
}

func TestSampleDurationSeedDeterminism(t *testing.T) {
	tt := TimingFor(taskgraph.LU)
	a := rand.New(rand.NewSource(7))
	b := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		da := tt.SampleDuration(a.NormFloat64(), taskgraph.KGEMMLU, GPU, 0.5)
		db := tt.SampleDuration(b.NormFloat64(), taskgraph.KGEMMLU, GPU, 0.5)
		if da != db {
			t.Fatal("same seed must give same samples")
		}
	}
}

func TestResourceTypeString(t *testing.T) {
	if CPU.String() != "CPU" || GPU.String() != "GPU" {
		t.Fatal("ResourceType.String wrong")
	}
}
