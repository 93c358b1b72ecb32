package sim_test

import (
	"context"
	"strings"
	"testing"

	"vliwq/internal/copyins"
	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
	"vliwq/internal/queue"
	"vliwq/internal/sched"
	"vliwq/internal/sim"
)

// compile runs the full pipeline: copy insertion, scheduling, allocation.
func compile(t testing.TB, l *ir.Loop, cfg machine.Config) (*sched.Schedule, *queue.Allocation) {
	t.Helper()
	ins := copyins.Insert(l, copyins.Tree)
	s, err := sched.ScheduleLoop(context.Background(), ins.Loop, cfg, sched.EffortFast)
	if err != nil {
		t.Fatalf("schedule(%s on %s): %v", l.Name, cfg.Name, err)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("schedule verify(%s): %v", l.Name, err)
	}
	a := allocate(s)
	if err := a.Verify(context.Background()); err != nil {
		t.Fatalf("alloc verify(%s): %v", l.Name, err)
	}
	return s, a
}

// allocate runs queue.Allocate with no deadline, where it cannot fail.
func allocate(s *sched.Schedule) *queue.Allocation {
	a, err := queue.Allocate(context.Background(), s)
	if err != nil {
		panic(err)
	}
	return a
}

func TestReferenceDeterministic(t *testing.T) {
	l := corpus.Daxpy()
	r1, err := sim.Reference(l, 20)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sim.Reference(l, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.CompareStores(r1.Stores, r2.Stores, false); err != nil {
		t.Fatal(err)
	}
	if len(r1.Stores) != 20 {
		t.Fatalf("daxpy stores one value per iteration, got %d for 20 iters", len(r1.Stores))
	}
}

func TestKernelsEndToEndSingleCluster(t *testing.T) {
	cfg := machine.SingleCluster(6)
	for _, l := range corpus.Kernels() {
		l := l
		t.Run(l.Name, func(t *testing.T) {
			s, a := compile(t, l, cfg)
			if err := sim.VerifyPipeline(context.Background(), s, a, 40); err != nil {
				t.Fatalf("pipeline(%s): %v", l.Name, err)
			}
		})
	}
}

func TestKernelsEndToEndClustered(t *testing.T) {
	cfg := machine.Clustered(4)
	for _, l := range corpus.Kernels() {
		l := l
		t.Run(l.Name, func(t *testing.T) {
			s, a := compile(t, l, cfg)
			if err := sim.VerifyPipeline(context.Background(), s, a, 40); err != nil {
				t.Fatalf("pipeline(%s): %v", l.Name, err)
			}
		})
	}
}

func TestCorpusSampleEndToEnd(t *testing.T) {
	loops := corpus.Generate(corpus.Params{Seed: 7, N: 60})
	configs := []machine.Config{machine.SingleCluster(4), machine.SingleCluster(12), machine.Clustered(4)}
	for _, cfg := range configs {
		for _, l := range loops {
			s, a := compile(t, l, cfg)
			if err := sim.VerifyPipeline(context.Background(), s, a, 24); err != nil {
				t.Fatalf("pipeline(%s on %s): %v", l.Name, cfg.Name, err)
			}
		}
	}
}

func TestPipelinedRejectsFanoutWithoutCopies(t *testing.T) {
	l := corpus.ComplexMul() // every input value consumed twice
	cfg := machine.SingleCluster(6)
	s, err := sched.ScheduleLoop(context.Background(), l, cfg, sched.EffortFast)
	if err != nil {
		t.Fatal(err)
	}
	a := allocate(s)
	_, err = sim.Pipelined(s, a, sim.PipeOptions{N: 10})
	if err == nil || !strings.Contains(err.Error(), "simultaneous writes") {
		t.Fatalf("expected simultaneous-write rejection, got %v", err)
	}
	// With AllowMultiWrite the same schedule must execute correctly.
	res, err := sim.Pipelined(s, a, sim.PipeOptions{N: 10, AllowMultiWrite: true})
	if err != nil {
		t.Fatalf("multi-write execution failed: %v", err)
	}
	ref, err := sim.Reference(l, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.CompareStores(ref.Stores, res.Stores, false); err != nil {
		t.Fatal(err)
	}
}

func TestPipelinedCatchesBadAllocation(t *testing.T) {
	// Force two incompatible lifetimes into one queue by corrupting a
	// valid allocation; the simulator must flag the FIFO violation.
	l := corpus.FIR5()
	cfg := machine.SingleCluster(6)
	ins := copyins.Insert(l, copyins.Tree)
	s, err := sched.ScheduleLoop(context.Background(), ins.Loop, cfg, sched.EffortFast)
	if err != nil {
		t.Fatal(err)
	}
	a := allocate(s)
	// Move every lifetime into queue 0 of its location.
	bad := *a
	bad.Assignments = append([]queue.Assignment(nil), a.Assignments...)
	changed := false
	for i := range bad.Assignments {
		if bad.Assignments[i].Queue != 0 {
			bad.Assignments[i].Queue = 0
			changed = true
		}
	}
	if !changed {
		t.Skip("allocation already single-queue; nothing to corrupt")
	}
	if err := bad.Verify(context.Background()); err == nil {
		t.Fatal("corrupted allocation passed Verify")
	}
	if _, err := sim.Pipelined(s, &bad, sim.PipeOptions{N: 12}); err == nil {
		t.Fatal("simulator accepted an allocation that violates Q-compatibility")
	}
}
