package unroll

import (
	"fmt"
	"testing"

	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
	"vliwq/internal/sim"
)

func TestUnrollStructure(t *testing.T) {
	l := corpus.Daxpy()
	u, err := Unroll(l, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(u.Ops), 3*len(l.Ops); got != want {
		t.Fatalf("ops: got %d, want %d", got, want)
	}
	if got, want := len(u.Deps), 3*len(l.Deps); got != want {
		t.Fatalf("deps: got %d, want %d", got, want)
	}
	if u.UnrollFactor() != 3 {
		t.Fatalf("unroll factor %d, want 3", u.UnrollFactor())
	}
	for _, op := range u.Ops {
		if op.Orig < 0 || op.Orig >= len(l.Ops) {
			t.Fatalf("replica %v lost lineage", op)
		}
		if op.Kind != l.Ops[op.Orig].Kind {
			t.Fatalf("replica %v changed kind", op)
		}
	}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUnrollFactorOneIsClone(t *testing.T) {
	l := corpus.Ddot()
	u, err := Unroll(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Ops) != len(l.Ops) || u.UnrollFactor() != 1 {
		t.Fatal("factor-1 unroll must be a plain clone")
	}
}

func TestUnrollRejectsDoubleUnroll(t *testing.T) {
	l := corpus.Ddot()
	u, err := Unroll(l, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unroll(u, 2); err == nil {
		t.Fatal("double unroll accepted")
	}
}

// TestUnrollDependenceRewiring checks the replica/distance arithmetic on a
// distance-2 recurrence: with factor 3, consumer replica u reads producer
// replica (u-2) mod 3 at distance (u<2 ? 1 : 0).
func TestUnrollDependenceRewiring(t *testing.T) {
	l := ir.New("rec2")
	a := l.AddOp(ir.KAdd, "a")
	l.AddCarried(a, a, 2)
	st := l.AddOp(ir.KStore, "st")
	l.AddFlow(a, st)
	u, err := Unroll(l, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Collect the carried deps between the replicas of a (op IDs 0, 2, 4:
	// replica u of op i has ID u*2+i).
	type edge struct{ from, to, dist int }
	var got []edge
	for _, d := range u.Deps {
		if u.Ops[d.From].Orig == 0 && u.Ops[d.To].Orig == 0 {
			got = append(got, edge{u.Ops[d.From].Phase, u.Ops[d.To].Phase, d.Dist})
		}
	}
	want := map[edge]bool{
		{1, 0, 1}: true, // u=0 reads phase 1 of previous unrolled iter
		{2, 1, 1}: true, // u=1 reads phase 2 of previous unrolled iter
		{0, 2, 0}: true, // u=2 reads phase 0 of the same unrolled iter
	}
	if len(got) != len(want) {
		t.Fatalf("got %d replica edges %v, want %d", len(got), got, len(want))
	}
	for _, e := range got {
		if !want[e] {
			t.Fatalf("unexpected edge %+v", e)
		}
	}
}

// TestUnrollPreservesSemantics is the key property: the unrolled body must
// compute exactly the original iteration space (stores compared in the
// original keying).
func TestUnrollPreservesSemantics(t *testing.T) {
	loops := append(corpus.Kernels(), corpus.Generate(corpus.Params{Seed: 21, N: 40})...)
	for _, l := range loops {
		for _, factor := range []int{2, 3, 4} {
			u, err := Unroll(l, factor)
			if err != nil {
				t.Fatalf("%s x%d: %v", l.Name, factor, err)
			}
			n := 24
			refOrig, err := sim.Reference(l, n*factor)
			if err != nil {
				t.Fatalf("%s: %v", l.Name, err)
			}
			refUnrolled, err := sim.Reference(u, n)
			if err != nil {
				t.Fatalf("%s x%d: %v", l.Name, factor, err)
			}
			// The unrolled run covers iterations [0, n*factor) exactly.
			if err := sim.CompareStores(refUnrolled.Stores, refOrig.Stores, false); err != nil {
				t.Fatalf("%s x%d: %v", l.Name, factor, err)
			}
		}
	}
}

func TestAutoFactorRecurrenceBound(t *testing.T) {
	// Recurrence-bound loops must not be unrolled: the resource bound is
	// already below the recurrence bound.
	cfg := machine.SingleCluster(12)
	for _, l := range []*ir.Loop{corpus.DivNorm(), corpus.Horner(), corpus.PrefixSum()} {
		if f := AutoFactor(l, cfg); f != 1 {
			t.Errorf("%s: AutoFactor = %d, want 1 (recurrence-bound)", l.Name, f)
		}
	}
}

func TestAutoFactorResourceBound(t *testing.T) {
	// daxpy on 12 FUs (4 L/S units): per-iteration resource bound is
	// 4 L/S ops / 4 units = 1 at factor 1 — already optimal, so factor 1.
	if f := AutoFactor(corpus.Daxpy(), machine.SingleCluster(12)); f != 1 {
		t.Errorf("daxpy/12: AutoFactor = %d, want 1", f)
	}
	// ddot on 4 FUs: 3 L/S ops over 1 unit = 3/iter at any factor; ALU
	// 1/2... factor 1 is optimal. But on 6 FUs (2 L/S), 3 L/S ops give
	// ceil(3u/2)/u: u=1 -> 2, u=2 -> 3/2, u=4 -> 3/2... improvement at 2.
	if f := AutoFactor(corpus.Ddot(), machine.SingleCluster(6)); f < 2 {
		t.Errorf("ddot/6: AutoFactor = %d, want >= 2 (fractional resource gain)", f)
	}
}

func TestAutoFactorWithinBounds(t *testing.T) {
	loops := corpus.Generate(corpus.Params{Seed: 22, N: 60})
	cfg := machine.SingleCluster(12)
	for _, l := range loops {
		f := AutoFactor(l, cfg)
		if f < 1 || f > MaxAutoFactor {
			t.Fatalf("%s: factor %d out of bounds", l.Name, f)
		}
		if f > 1 && f*len(l.Ops) > MaxUnrolledOps {
			t.Fatalf("%s: factor %d exceeds the op budget", l.Name, f)
		}
	}
}

func TestUnrollTripCount(t *testing.T) {
	l := corpus.Daxpy()
	l.Trip = 100
	u, err := Unroll(l, 4)
	if err != nil {
		t.Fatal(err)
	}
	if u.TripCount() != 25 {
		t.Fatalf("trip: got %d, want 25", u.TripCount())
	}
}

// TestUnrollReplicaNames: replica u of a named op is "name.u", unnamed ops
// stay unnamed, and the loop is "name.xU", for one- to three-digit
// replica indices.
func TestUnrollReplicaNames(t *testing.T) {
	l := corpus.Hydro()
	l.Ops[1].Name = "" // mix named and unnamed ops
	for _, factor := range []int{2, 11, 120} {
		u, err := Unroll(l, factor)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("%s.x%d", l.Name, factor); u.Name != want {
			t.Fatalf("loop name %q, want %q", u.Name, want)
		}
		for _, op := range u.Ops {
			want := ""
			if name := l.Ops[op.Orig].Name; name != "" {
				want = fmt.Sprintf("%s.%d", name, op.Phase)
			}
			if op.Name != want {
				t.Fatalf("x%d: replica %d named %q, want %q", factor, op.ID, op.Name, want)
			}
		}
	}
}

// TestAutoFactorAllocs: AutoFactor's RecMII runs in a pooled scheduler
// arena, so once the pool has seen BenchmarkAutoFactor's loops a call
// allocates nothing.
func TestAutoFactorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	cfg := machine.Clustered(4)
	loops := corpus.Generate(corpus.Params{Seed: corpus.DefaultSeed, N: 64})
	for _, l := range loops {
		AutoFactor(l, cfg)
	}
	for _, l := range loops {
		if n := testing.AllocsPerRun(20, func() { AutoFactor(l, cfg) }); n != 0 {
			t.Errorf("%s: AutoFactor allocates %v times, want 0", l.Name, n)
		}
	}
}
