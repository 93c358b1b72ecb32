package copyins

import (
	"testing"

	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/sim"
)

func TestInsertSingleConsumerUntouched(t *testing.T) {
	l := corpus.Daxpy() // straight chain, fanout 1 everywhere
	res := Insert(l, Tree)
	if res.CopiesAdded != 0 || res.ValuesFanned != 0 {
		t.Fatalf("chain loop got %d copies", res.CopiesAdded)
	}
	if len(res.Loop.Ops) != len(l.Ops) {
		t.Fatal("op count changed")
	}
}

// TestInsertFanoutProperty: after insertion every value has at most one
// consumer, except copies which have at most two.
func TestInsertFanoutProperty(t *testing.T) {
	loops := append(corpus.Kernels(), corpus.Generate(corpus.Params{Seed: 31, N: 80})...)
	for _, shape := range []Shape{Tree, Chain} {
		for _, l := range loops {
			res := Insert(l, shape)
			for _, op := range res.Loop.Ops {
				fan := res.Loop.Fanout(op)
				limit := 1
				if op.Kind == ir.KCopy {
					limit = 2
				}
				if fan > limit {
					t.Fatalf("%s (%v): %v has fanout %d after insertion", l.Name, shape, op, fan)
				}
			}
		}
	}
}

// TestInsertCopyCount: a value with n consumers needs exactly n-1 copies
// (every copy has two outputs; the producer keeps one write).
func TestInsertCopyCount(t *testing.T) {
	for n := 2; n <= 9; n++ {
		l := ir.New("fan")
		src := l.AddOp(ir.KLoad, "src")
		for i := 0; i < n; i++ {
			st := l.AddOp(ir.KStore, "")
			l.AddFlow(src, st)
		}
		for _, shape := range []Shape{Tree, Chain} {
			res := Insert(l, shape)
			if res.CopiesAdded != n-1 {
				t.Errorf("n=%d %v: %d copies, want %d", n, shape, res.CopiesAdded, n-1)
			}
		}
	}
}

// TestTreeDepthBeatsChain: the balanced tree adds O(log n) latency to the
// farthest consumer while the chain adds O(n).
func TestTreeDepthBeatsChain(t *testing.T) {
	const n = 8
	l := ir.New("fan8")
	src := l.AddOp(ir.KLoad, "src")
	for i := 0; i < n; i++ {
		st := l.AddOp(ir.KStore, "")
		l.AddFlow(src, st)
	}
	depth := func(shape Shape) int {
		res := Insert(l, shape)
		// Longest zero-distance path from src to any store, in copy hops.
		lp := make([]int, len(res.Loop.Ops))
		order, err := res.Loop.TopoOrder(nil)
		if err != nil {
			t.Fatal(err)
		}
		maxd := 0
		for _, id := range order {
			for _, d := range res.Loop.FlowInputs(res.Loop.Ops[id]) {
				if lp[d.From]+1 > lp[id] {
					lp[id] = lp[d.From] + 1
				}
			}
			if lp[id] > maxd {
				maxd = lp[id]
			}
		}
		return maxd
	}
	dt, dc := depth(Tree), depth(Chain)
	if dt >= dc {
		t.Fatalf("tree depth %d not better than chain depth %d", dt, dc)
	}
	if dt > 4 { // 1 (root copy) + ceil(log2 8) = 4
		t.Fatalf("tree depth %d exceeds log bound", dt)
	}
}

// TestInsertPreservesSemantics: copies are identity operations, so the
// sequential semantics must be bit-identical.
func TestInsertPreservesSemantics(t *testing.T) {
	loops := append(corpus.Kernels(), corpus.Generate(corpus.Params{Seed: 32, N: 60})...)
	for _, shape := range []Shape{Tree, Chain} {
		for _, l := range loops {
			res := Insert(l, shape)
			refA, err := sim.Reference(l, 30)
			if err != nil {
				t.Fatalf("%s: %v", l.Name, err)
			}
			refB, err := sim.Reference(res.Loop, 30)
			if err != nil {
				t.Fatalf("%s+copies: %v", l.Name, err)
			}
			if err := sim.CompareStores(refA.Stores, refB.Stores, false); err != nil {
				t.Fatalf("%s (%v): %v", l.Name, shape, err)
			}
		}
	}
}

// TestInsertDistancesMoveToLeaves: the producer->copy edge is always
// distance 0; original distances ride on the final hop to each consumer.
func TestInsertDistancesMoveToLeaves(t *testing.T) {
	l := ir.New("carriedfan")
	a := l.AddOp(ir.KAdd, "a")
	b := l.AddOp(ir.KAdd, "b")
	l.AddCarried(a, b, 2)
	st1 := l.AddOp(ir.KStore, "s1")
	l.AddFlow(a, st1)
	st2 := l.AddOp(ir.KStore, "s2")
	l.AddFlow(b, st2)
	res := Insert(l, Tree)
	for _, d := range res.Loop.Deps {
		if res.Loop.Ops[d.To].Kind == ir.KCopy && d.Dist != 0 {
			t.Fatalf("copy input edge carries distance %d", d.Dist)
		}
	}
	// The b consumer must still see distance 2 somewhere on its final hop.
	found := false
	for _, d := range res.Loop.Deps {
		if d.To == b.ID && d.Dist == 2 && d.Kind == ir.Flow {
			found = true
		}
	}
	if !found {
		t.Fatal("carried distance lost in fanout rewrite")
	}
}

func TestInsertIdempotent(t *testing.T) {
	l := corpus.ComplexMul()
	res1 := Insert(l, Tree)
	res2 := Insert(res1.Loop, Tree)
	if res2.CopiesAdded != 0 {
		t.Fatalf("second insertion added %d copies", res2.CopiesAdded)
	}
}
