package metrics

import (
	"context"
	"math"
	"testing"

	"vliwq/internal/copyins"
	"vliwq/internal/corpus"
	"vliwq/internal/machine"
	"vliwq/internal/sched"
	"vliwq/internal/unroll"
)

func TestRealOpsExcludesOverhead(t *testing.T) {
	l := corpus.ComplexMul()
	if got, want := RealOps(l), len(l.Ops); got != want {
		t.Fatalf("RealOps = %d, want %d", got, want)
	}
	ins := copyins.Insert(l, copyins.Tree)
	if got := RealOps(ins.Loop); got != len(l.Ops) {
		t.Fatalf("RealOps after copy insertion = %d, want %d (copies excluded)", got, len(l.Ops))
	}
}

func TestIPCStaticAndDynamicRelation(t *testing.T) {
	cfg := machine.SingleCluster(6)
	for _, l := range corpus.Kernels() {
		s, err := sched.ScheduleLoop(context.Background(), l, cfg, sched.EffortFast)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		static := IPCStatic(s)
		dyn := IPCDynamic(s, l.TripCount())
		if static <= 0 || dyn <= 0 {
			t.Fatalf("%s: nonpositive IPC", l.Name)
		}
		// Dynamic includes prologue/epilogue overhead, so it can never
		// exceed static.
		if dyn > static+1e-9 {
			t.Fatalf("%s: dynamic %.3f > static %.3f", l.Name, dyn, static)
		}
		// And converges to static as the trip count grows.
		dynBig := IPCDynamic(s, 1_000_000)
		if math.Abs(dynBig-static) > 0.01*static {
			t.Fatalf("%s: dynamic %.4f does not converge to static %.4f", l.Name, dynBig, static)
		}
	}
}

func TestCycles(t *testing.T) {
	l := corpus.Daxpy()
	s, err := sched.ScheduleLoop(context.Background(), l, machine.SingleCluster(12), sched.EffortFast)
	if err != nil {
		t.Fatal(err)
	}
	n := 100
	want := (n + s.StageCount() - 1) * s.II
	if got := Cycles(s, n); got != want {
		t.Fatalf("Cycles = %d, want %d", got, want)
	}
}

func TestIISpeedup(t *testing.T) {
	if got := IISpeedup(3, 2, 5); math.Abs(got-1.2) > 1e-9 {
		t.Fatalf("IISpeedup(3,2,5) = %v, want 1.2", got)
	}
	if got := IISpeedup(4, 1, 4); got != 1 {
		t.Fatalf("identity speedup = %v", got)
	}
	if got := IISpeedup(4, 2, 10); got >= 1 {
		t.Fatalf("slowdown should be < 1, got %v", got)
	}
}

func TestDynamicAggregateWeighting(t *testing.T) {
	cfg := machine.SingleCluster(6)
	small, err := sched.ScheduleLoop(context.Background(), corpus.Daxpy(), cfg, sched.EffortFast)
	if err != nil {
		t.Fatal(err)
	}
	big, err := sched.ScheduleLoop(context.Background(), corpus.Hydro(), cfg, sched.EffortFast)
	if err != nil {
		t.Fatal(err)
	}
	// Weighting by execution time: an aggregate dominated by the big
	// loop's long run must sit near the big loop's own dynamic IPC.
	var agg DynamicAggregate
	agg.Add(small, 10)
	agg.Add(big, 100000)
	bigOwn := IPCDynamic(big, 100000)
	if math.Abs(agg.IPC()-bigOwn) > 0.05*bigOwn {
		t.Fatalf("aggregate %.3f not dominated by big loop %.3f", agg.IPC(), bigOwn)
	}
}

func TestDynamicAggregateUnrolled(t *testing.T) {
	cfg := machine.SingleCluster(6)
	l := corpus.Stencil3()
	u, err := unroll.Unroll(l, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ScheduleLoop(context.Background(), u, cfg, sched.EffortFast)
	if err != nil {
		t.Fatal(err)
	}
	var agg DynamicAggregate
	agg.Add(s, l.TripCount())
	// The unrolled body executes trip/2 times; ops per body iteration
	// doubled. The aggregate must roughly match the per-loop dynamic IPC.
	own := IPCDynamic(s, l.TripCount()/2)
	if math.Abs(agg.IPC()-own) > 1e-9 {
		t.Fatalf("aggregate %.4f != per-loop %.4f", agg.IPC(), own)
	}
}

func TestMean(t *testing.T) {
	var m Mean
	if m.Value() != 0 || m.n != 0 {
		t.Fatal("zero-value Mean wrong")
	}
	m.Add(1)
	m.Add(2)
	m.Add(6)
	if got := m.Value(); math.Abs(got-3) > 1e-12 {
		t.Fatalf("mean = %v, want 3", got)
	}
	if m.n != 3 {
		t.Fatalf("n = %d", m.n)
	}
}
