package sim_test

import (
	"context"
	"testing"

	"vliwq/internal/copyins"
	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
	"vliwq/internal/sched"
	"vliwq/internal/sim"
	"vliwq/internal/unroll"
)

// TestUnrolledPipelineEndToEnd verifies the full pipeline including
// unrolling: the pipelined execution of the unrolled body must store
// exactly what the sequential original stores, keyed in the original
// iteration space. VerifyPipeline holds the pipelined run to the
// sequential run of the scheduled body, store instance by store instance,
// and CompareStores holds that body's stores to the original's.
func TestUnrolledPipelineEndToEnd(t *testing.T) {
	cfg := machine.Clustered(4)
	for _, name := range []string{"stencil3", "hydro", "fir5"} {
		l := corpus.KernelByName(name)
		u, err := unroll.Unroll(l, 3)
		if err != nil {
			t.Fatal(err)
		}
		ins := copyins.Insert(u, copyins.Tree)
		s, err := sched.ScheduleLoop(context.Background(), ins.Loop, cfg, sched.EffortFast)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a := allocate(s)
		const bodyIters = 12
		if err := sim.VerifyPipeline(context.Background(), s, a, bodyIters); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		refBody, err := sim.Reference(s.Loop, bodyIters)
		if err != nil {
			t.Fatal(err)
		}
		refOrig, err := sim.Reference(l, bodyIters*3)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.CompareStores(refBody.Stores, refOrig.Stores, false); err != nil {
			t.Fatalf("%s unrolled pipeline diverges from original: %v", name, err)
		}
	}
}

// TestPipelineWithCommLatency: non-zero inter-cluster latency shifts write
// times; the tag checks must still pass end to end.
func TestPipelineWithCommLatency(t *testing.T) {
	cfg := machine.Clustered(4)
	cfg.CommLatency = 2
	for _, l := range corpus.Generate(corpus.Params{Seed: 61, N: 20}) {
		ins := copyins.Insert(l, copyins.Tree)
		s, err := sched.ScheduleLoop(context.Background(), ins.Loop, cfg, sched.EffortFast)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		a := allocate(s)
		if err := sim.VerifyPipeline(context.Background(), s, a, 16); err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
	}
}

// TestPipelineWithMoves: the move-op extension's inserted chains must
// deliver the right values through intermediate clusters.
func TestPipelineWithMoves(t *testing.T) {
	cfg := machine.Clustered(6)
	cfg.AllowMoves = true
	verified, withMoves := 0, 0
	for _, l := range corpus.Generate(corpus.Params{Seed: 62, N: 40}) {
		ins := copyins.Insert(l, copyins.Tree)
		s, err := sched.ScheduleLoop(context.Background(), ins.Loop, cfg, sched.EffortFast)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		for _, op := range s.Loop.Ops {
			if op.Kind == ir.KMove {
				withMoves++
				break
			}
		}
		a := allocate(s)
		if err := sim.VerifyPipeline(context.Background(), s, a, 12); err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		verified++
	}
	if verified == 0 {
		t.Fatal("nothing verified")
	}
	t.Logf("verified %d loops, %d containing move chains", verified, withMoves)
}

func TestCompareStoresDetectsDifferences(t *testing.T) {
	a := map[sim.StoreKey]int64{{Op: 1, Iter: 0}: 10, {Op: 1, Iter: 1}: 20}
	b := map[sim.StoreKey]int64{{Op: 1, Iter: 0}: 10, {Op: 1, Iter: 1}: 21}
	if err := sim.CompareStores(a, b, false); err == nil {
		t.Fatal("value mismatch not detected")
	}
	c := map[sim.StoreKey]int64{{Op: 1, Iter: 0}: 10}
	if err := sim.CompareStores(a, c, false); err == nil {
		t.Fatal("missing key not detected")
	}
	if err := sim.CompareStores(c, a, false); err == nil {
		t.Fatal("extra key not detected")
	}
	// onlyCommon tolerates missing keys in the second map only.
	if err := sim.CompareStores(a, c, true); err != nil {
		t.Fatalf("onlyCommon rejected truncated execution: %v", err)
	}
}

// TestReferenceMemOrderIndependent: memory and ordering dependences
// constrain schedules, not sequential semantics; adding them must not
// change reference results.
func TestReferenceMemOrderIndependent(t *testing.T) {
	l := corpus.Daxpy()
	r1, err := sim.Reference(l, 16)
	if err != nil {
		t.Fatal(err)
	}
	l2 := l.Clone()
	l2.AddDep(ir.Dep{From: 5, To: 0, Dist: 1, Kind: ir.Mem})
	r2, err := sim.Reference(l2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.CompareStores(r1.Stores, r2.Stores, false); err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedQueueDepthEnforced: a machine declaring a tiny queue depth
// must reject executions that need deeper queues.
func TestPipelinedQueueDepthEnforced(t *testing.T) {
	l := corpus.Wave2()
	cfg := machine.SingleCluster(6)
	cfg.Clusters[0].QueueDepth = 1
	ins := copyins.Insert(l, copyins.Tree)
	s, err := sched.ScheduleLoop(context.Background(), ins.Loop, cfg, sched.EffortFast)
	if err != nil {
		t.Fatal(err)
	}
	a := allocate(s)
	_, errPipe := sim.Pipelined(s, a, sim.PipeOptions{N: 20})
	// Depth 1 may or may not suffice depending on the schedule; if the
	// allocator says deeper queues are needed, the simulator must agree.
	if a.MaxDepth() > 1 && errPipe == nil {
		t.Fatalf("allocator needs depth %d but simulator accepted depth 1", a.MaxDepth())
	}
	if a.MaxDepth() <= 1 && errPipe != nil {
		t.Fatalf("depth 1 suffices per allocator, simulator disagreed: %v", errPipe)
	}
}

// TestPipelinedReportsCycles: the simulated span must match the modeled
// pipelined length within one stage (drain details).
func TestPipelinedReportsCycles(t *testing.T) {
	l := corpus.KernelByName("daxpy")
	ins := copyins.Insert(l, copyins.Tree)
	s, err := sched.ScheduleLoop(context.Background(), ins.Loop, machine.SingleCluster(6), sched.EffortFast)
	if err != nil {
		t.Fatal(err)
	}
	a := allocate(s)
	n := 30
	res, err := sim.Pipelined(s, a, sim.PipeOptions{N: n})
	if err != nil {
		t.Fatal(err)
	}
	modeled := sched.PipelinedLength(s, n)
	if res.Cycles > modeled+s.II || res.Cycles < modeled-s.Length() {
		t.Fatalf("simulated %d cycles, modeled %d", res.Cycles, modeled)
	}
	if res.Issues != n*len(s.Loop.Ops) {
		t.Fatalf("issued %d instances, want %d", res.Issues, n*len(s.Loop.Ops))
	}
}
