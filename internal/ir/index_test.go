package ir

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// depSets are the sets IndexDeps groups by.
var depSets = [...]DepSet{AllDeps, FlowDeps, ZeroDistDeps}

// CheckIndex exports checkIndex to the external ir_test package, whose
// corpus-driven tests cannot live in package ir (internal/corpus imports
// ir).
var CheckIndex = checkIndex

// scanIndex is the direct definition IndexDeps is held to: per op, the
// positions in l.Deps of set's dependences listed under their producer
// (byFrom) or consumer, appended in one scan over Deps.
func scanIndex(l *Loop, set DepSet, byFrom bool) [][]int32 {
	lists := make([][]int32, len(l.Ops))
	for e, d := range l.Deps {
		in := set == AllDeps || set == FlowDeps && d.Kind == Flow || set == ZeroDistDeps && d.Dist == 0
		if !in {
			continue
		}
		end := d.To
		if byFrom {
			end = d.From
		}
		lists[end] = append(lists[end], int32(e))
	}
	return lists
}

// gather appends the dependences at the given positions of l.Deps to
// ds[:0].
func gather(ds []Dep, l *Loop, es []int32) []Dep {
	ds = ds[:0]
	for _, e := range es {
		ds = append(ds, l.Deps[e])
	}
	return ds
}

// checkIndex holds IndexDeps to scanIndex for every set in both
// directions, its flow lists to FlowInputs and FlowOutputs, and the
// PredsInto and SuccsInto views to its lists over every dependence.
func checkIndex(t testing.TB, l *Loop) {
	t.Helper()
	var x DepIndex
	var preds, succs Adj
	var ds []Dep
	l.PredsInto(&preds)
	l.SuccsInto(&succs)
	for _, set := range depSets {
		for _, byFrom := range []bool{false, true} {
			l.IndexDeps(&x, set, byFrom)
			want := scanIndex(l, set, byFrom)
			for id, op := range l.Ops {
				got := x.At(id)
				if !slices.Equal(got, want[id]) {
					t.Fatalf("%s: IndexDeps(set %d, byFrom %t).At(%d) = %v, a scan lists %v", l.Name, set, byFrom, id, got, want[id])
				}
				var oracle []Dep
				switch {
				case set == FlowDeps && byFrom:
					oracle = l.FlowOutputs(op)
				case set == FlowDeps:
					oracle = l.FlowInputs(op)
				case set == AllDeps && byFrom:
					oracle = succs.At(id)
				case set == AllDeps:
					oracle = preds.At(id)
				default:
					continue
				}
				if ds = gather(ds, l, got); !slices.Equal(ds, oracle) {
					t.Fatalf("%s: IndexDeps(set %d, byFrom %t) lists %v under op %d, want %v", l.Name, set, byFrom, ds, id, oracle)
				}
			}
		}
	}
}

// randomLoop is n ops with up to 3n dependences of every kind between
// random endpoints, self-loops and distances 0..2 included: IndexDeps
// needs only the endpoints to be ops of the loop.
func randomLoop(rng *rand.Rand, n int) *Loop {
	l := New(fmt.Sprintf("random%d", n))
	for i := 0; i < n; i++ {
		l.AddOp(KAdd, "")
	}
	for e := rng.Intn(3*n + 1); e > 0; e-- {
		l.AddDep(Dep{From: rng.Intn(n), To: rng.Intn(n), Dist: rng.Intn(3), Kind: DepKind(rng.Intn(3))})
	}
	return l
}

// TestIndexDepsMatchesScan holds the index, in every set and direction,
// to a direct scan of random dependence graphs.
func TestIndexDepsMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		checkIndex(t, randomLoop(rng, 1+rng.Intn(12)))
	}
	checkIndex(t, chain(t))
}

// TestIndexDepsPoisonedRebuild: a rebuild over storage a larger loop left
// behind, overwritten to its capacity with junk, equals a fresh build, so
// nothing an index or an Adj reads survives from an earlier loop.
func TestIndexDepsPoisonedRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	big := randomLoop(rng, 64)
	var x DepIndex
	var a Adj
	for trial := 0; trial < 100; trial++ {
		l := randomLoop(rng, 1+rng.Intn(24))
		for _, set := range depSets {
			for _, byFrom := range []bool{false, true} {
				big.IndexDeps(&x, set, byFrom)
				big.adjInto(&a, byFrom)
				for _, s := range [][]int32{x.off, x.dep, a.idx.off, a.idx.dep} {
					s = s[:cap(s)]
					for i := range s {
						s[i] = -9
					}
				}
				junk := a.deps[:cap(a.deps)]
				for i := range junk {
					junk[i] = Dep{From: -1, To: -2, Dist: -3, Kind: Order}
				}
				var fresh DepIndex
				l.IndexDeps(&fresh, set, byFrom)
				l.IndexDeps(&x, set, byFrom)
				if !slices.Equal(x.off, fresh.off) || !slices.Equal(x.dep, fresh.dep) {
					t.Fatalf("%s (set %d, byFrom %t): rebuilt over poisoned storage %v/%v, fresh %v/%v",
						l.Name, set, byFrom, x.off, x.dep, fresh.off, fresh.dep)
				}
				var freshAdj Adj
				l.adjInto(&freshAdj, byFrom)
				l.adjInto(&a, byFrom)
				for id := range l.Ops {
					if !slices.Equal(a.At(id), freshAdj.At(id)) {
						t.Fatalf("%s (byFrom %t): Adj rebuilt over poisoned storage lists %v under op %d, fresh %v",
							l.Name, byFrom, a.At(id), id, freshAdj.At(id))
					}
				}
			}
		}
	}
}

// TestIndexDepsAllocs: once sized, rebuilding an index or an Adj view, in
// any set and direction, allocates nothing.
func TestIndexDepsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	l := randomLoop(rand.New(rand.NewSource(3)), 40)
	var x DepIndex
	var preds, succs Adj
	rebuild := func() {
		for _, set := range depSets {
			l.IndexDeps(&x, set, false)
			l.IndexDeps(&x, set, true)
		}
		l.PredsInto(&preds)
		l.SuccsInto(&succs)
	}
	rebuild()
	if allocs := testing.AllocsPerRun(100, rebuild); allocs != 0 {
		t.Errorf("index rebuild allocates %.1f times, want 0", allocs)
	}
}
