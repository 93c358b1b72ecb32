package queue_test

import (
	"context"
	"testing"

	"vliwq/internal/copyins"
	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
	"vliwq/internal/queue"
	"vliwq/internal/sched"
)

func compile(t testing.TB, l *ir.Loop, cfg machine.Config) *sched.Schedule {
	t.Helper()
	ins := copyins.Insert(l, copyins.Tree)
	s, err := sched.ScheduleLoop(context.Background(), ins.Loop, cfg, sched.EffortFast)
	if err != nil {
		t.Fatalf("%s: %v", l.Name, err)
	}
	return s
}

// allocate runs queue.Allocate with no deadline, where it cannot fail.
func allocate(t testing.TB, s *sched.Schedule) *queue.Allocation {
	t.Helper()
	a, err := queue.Allocate(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAllocateVerifiesOnCorpus(t *testing.T) {
	loops := corpus.Generate(corpus.Params{Seed: 51, N: 80})
	for _, cfg := range []machine.Config{machine.SingleCluster(6), machine.Clustered(4)} {
		for _, l := range loops {
			s := compile(t, l, cfg)
			a := allocate(t, s)
			if err := a.Verify(context.Background()); err != nil {
				t.Fatalf("%s on %s: %v", l.Name, cfg.Name, err)
			}
			if len(a.Assignments) != countFlow(s.Loop) {
				t.Fatalf("%s: %d assignments for %d flow deps",
					l.Name, len(a.Assignments), countFlow(s.Loop))
			}
		}
	}
}

func countFlow(l *ir.Loop) int {
	n := 0
	for _, d := range l.Deps {
		if d.Kind == ir.Flow {
			n++
		}
	}
	return n
}

// TestAllocationLocations: same-cluster lifetimes go to the consumer's
// private QRF; cross-cluster lifetimes to the directed ring link, which
// must connect adjacent clusters.
func TestAllocationLocations(t *testing.T) {
	loops := corpus.Generate(corpus.Params{Seed: 52, N: 40})
	cfg := machine.Clustered(4)
	for _, l := range loops {
		s := compile(t, l, cfg)
		a := allocate(t, s)
		for _, as := range a.Assignments {
			cp := s.Cluster[as.Lifetime.Dep.From]
			cc := s.Cluster[as.Lifetime.Dep.To]
			if cp == cc {
				if as.Loc.Kind != queue.Private || as.Loc.From != cp {
					t.Fatalf("%s: same-cluster lifetime mapped to %v", l.Name, as.Loc)
				}
			} else {
				if as.Loc.Kind != queue.Ring || as.Loc.From != cp || as.Loc.To != cc {
					t.Fatalf("%s: cross-cluster lifetime mapped to %v", l.Name, as.Loc)
				}
				if !cfg.Adjacent(cp, cc) {
					t.Fatalf("%s: ring link between non-adjacent clusters", l.Name)
				}
			}
		}
	}
}

// TestAllocationDeterministic: same schedule, same allocation.
func TestAllocationDeterministic(t *testing.T) {
	s := compile(t, corpus.Hydro(), machine.Clustered(4))
	a := allocate(t, s)
	b := allocate(t, s)
	if len(a.Assignments) != len(b.Assignments) {
		t.Fatal("assignment counts differ")
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatalf("assignment %d differs", i)
		}
	}
}

// TestFirstFitNotWasteful: the allocator must share queues when lifetimes
// are compatible — a chain of single-consumer values with staggered
// lifetimes must not use one queue per value.
func TestFirstFitNotWasteful(t *testing.T) {
	s := compile(t, corpus.FIR5(), machine.SingleCluster(12))
	a := allocate(t, s)
	flow := countFlow(s.Loop)
	if a.MaxPrivateQueues() >= flow {
		t.Fatalf("first-fit used %d queues for %d lifetimes (no sharing at all)",
			a.MaxPrivateQueues(), flow)
	}
}

func TestMaxDepthMatchesOccupancy(t *testing.T) {
	s := compile(t, corpus.Wave2(), machine.SingleCluster(6))
	a := allocate(t, s)
	if a.MaxDepth() < 1 {
		t.Fatal("wave2 must keep at least one value resident")
	}
}
