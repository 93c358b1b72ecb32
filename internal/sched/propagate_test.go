package sched

// The independent oracle for the exact search's stage-potential
// propagation (exact.go, DESIGN.md §14 rule 4). propagate answers two
// questions incrementally — does the placed subgraph have a positive
// cycle, and if not, what is its least non-negative stage assignment — and
// the oracle answers both from scratch with a plain Bellman–Ford over the
// placed subgraph. Random placement walks, backtracking through the undo
// log the way dfs does, drive the searcher directly, so the check covers
// placements and orders the search itself would never try.

import (
	"math/rand"
	"reflect"
	"testing"

	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
)

// oracleStagePotentials computes, from nothing but the loop, the machine
// and the placement, the least non-negative solution of
// pot[to] - pot[from] >= ceil((L + row[from] - row[to]) / ii) - dist over
// every dependence whose endpoints are both placed (L adds the hop latency
// to a flow dependence that crosses clusters). Every potential starts at 0
// and all edges relax for n rounds; an edge that still relaxes after that
// proves a positive cycle, reported as ok == false.
func oracleStagePotentials(l *ir.Loop, cfg machine.Config, ii int, placed []bool, row, clu []int32) (pot []int, ok bool) {
	n := len(l.Ops)
	pot = make([]int, n)
	relax := func() bool {
		changed := false
		for _, d := range l.Deps {
			if !placed[d.From] || !placed[d.To] {
				continue
			}
			span := l.Ops[d.From].Kind.Latency() + int(row[d.From]) - int(row[d.To])
			if d.Kind == ir.Flow && clu[d.From] != clu[d.To] {
				span += cfg.CommLatency
			}
			k := span / ii // truncates toward zero: already the ceiling when span < 0
			if k*ii < span {
				k++
			}
			if v := pot[d.From] + k - d.Dist; v > pot[d.To] {
				pot[d.To] = v
				changed = true
			}
		}
		return changed
	}
	for round := 0; round < n; round++ {
		if !relax() {
			return pot, true
		}
	}
	return pot, !relax()
}

// walkStats counts what one propagateWalk did: placements (fresh or moved),
// rejections among them, and the moves that reused the previous row's
// propagation, with the rejections among those.
type walkStats struct {
	placements, rejected, reused, reusedRejected int
}

func (w *walkStats) add(o walkStats) {
	w.placements += o.placements
	w.rejected += o.rejected
	w.reused += o.reused
	w.reusedRejected += o.reusedRejected
}

// propagateWalk places, moves and removes ops of l on cfg at ii through one
// exactSearcher, choosing each step with pick(k), which returns a choice
// in [0, k) or -1 to end the walk. It drives the searcher as dfs does: a
// placement activates x's weights and then propagates, and a move puts the
// top op on another row of its cluster, where equal weights keep the
// previous row's verdict and potentials without propagating (DESIGN.md §14
// rule 4) and other weights unwind and propagate afresh. After every
// placement and move it checks that the verdict is the oracle's (a
// positive cycle exactly when it rejects), that an accepted placement
// leaves every placed potential at the oracle's least solution with no op
// left queued, and that unwinding a placement restores pot exactly; every
// walk ends by unwinding each placement still on its stack.
func propagateWalk(t *testing.T, l *ir.Loop, cfg machine.Config, ii int, pick func(k int) int) walkStats {
	t.Helper()
	ex := newExactSearcher(l, &cfg)
	ex.ii = ii
	n, nc := ex.n, cfg.NumClusters()
	type frame struct {
		x, mark int
		before  []int
		ok      bool // the op's current row was accepted
	}
	var stack []frame
	var st walkStats
	pop := func() {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ex.unwind(f.mark)
		ex.placed[f.x] = false
		if !reflect.DeepEqual(ex.pot, f.before) {
			t.Fatalf("%s at II=%d: unwinding op %d left pot=%v, want %v", l.Name, ii, f.x, ex.pot, f.before)
		}
	}
	// check holds the top frame's verdict and potentials to the oracle.
	check := func(how string) {
		f := &stack[len(stack)-1]
		x, r, cl := f.x, ex.rowOf[f.x], ex.cluOf[f.x]
		st.placements++
		want, feasible := oracleStagePotentials(l, cfg, ii, ex.placed, ex.rowOf, ex.cluOf)
		if f.ok != feasible {
			t.Fatalf("%s on %s (comm %d) at II=%d: %s op %d at (row %d, cluster %d) with %d ops placed: accepted=%v, oracle feasible=%v",
				l.Name, cfg.Name, cfg.CommLatency, ii, how, x, r, cl, len(stack), f.ok, feasible)
		}
		for i, q := range ex.queued {
			if q {
				t.Fatalf("%s at II=%d: op %d still queued after propagate", l.Name, ii, i)
			}
		}
		if !f.ok {
			st.rejected++
			ex.placed[x] = false
			return
		}
		for i := range want {
			if ex.placed[i] && ex.pot[i] != want[i] {
				t.Fatalf("%s on %s (comm %d) at II=%d: after %s op %d, pot[%d]=%d, least solution %d",
					l.Name, cfg.Name, cfg.CommLatency, ii, how, x, i, ex.pot[i], want[i])
			}
		}
	}
walk:
	for {
		c := pick(4)
		if c < 0 {
			break
		}
		top := len(stack) - 1
		switch {
		case top >= 0 && c == 1 && ii > 1:
			// Move the top op to another row of its cluster: the next
			// sibling dfs would try at this node.
			f := &stack[top]
			d := pick(ii - 1)
			if d < 0 {
				break walk
			}
			x := f.x
			ex.placed[x] = true
			ex.rowOf[x] = int32((int(ex.rowOf[x]) + 1 + d) % ii)
			if ex.activate(x) {
				st.reused++
				if !f.ok {
					st.reusedRejected++
				}
				check("reusing the previous row's propagation for")
				continue
			}
			ex.unwind(f.mark)
			if !reflect.DeepEqual(ex.pot, f.before) {
				t.Fatalf("%s at II=%d: unwinding op %d before moving it left pot=%v, want %v", l.Name, ii, x, ex.pot, f.before)
			}
			f.ok = ex.propagate(x)
			check("moving")
		case top >= 0 && (c == 0 || len(stack) == n || !stack[top].ok):
			pop()
		default:
			k := pick(n - len(stack))
			r, cl := pick(ii), pick(nc)
			if k < 0 || r < 0 || cl < 0 {
				break walk
			}
			x := 0
			for ; ; x++ {
				if !ex.placed[x] {
					if k == 0 {
						break
					}
					k--
				}
			}
			stack = append(stack, frame{x: x, mark: len(ex.undo), before: append([]int(nil), ex.pot...)})
			ex.placed[x] = true
			ex.rowOf[x], ex.cluOf[x] = int32(r), int32(cl)
			ex.activate(x)
			stack[len(stack)-1].ok = ex.propagate(x)
			check("placing")
		}
	}
	for len(stack) > 0 {
		pop()
	}
	return st
}

// walkII draws a candidate II for l on cfg in [1, MII+2]: low enough that
// recurrences form positive cycles, high enough that full placements
// succeed.
func walkII(l *ir.Loop, cfg machine.Config, r int) int {
	mii := RecMII(l)
	if res, err := ResMII(l, cfg); err == nil && res > mii {
		mii = res
	}
	return 1 + r%(mii+2)
}

// TestExactPropagateMatchesOracle runs seeded random placement walks over
// stressed loops on clustered:4 and clustered:6 at comm latency 0-2 and
// holds propagate to the Bellman–Ford oracle at every step. The seed is
// logged so a failure replays exactly.
func TestExactPropagateMatchesOracle(t *testing.T) {
	const seed = 20261017
	rng := rand.New(rand.NewSource(seed))
	t.Logf("propagate walk seed %d", seed)
	loops := corpus.Stressed()
	var st walkStats
	for _, nc := range []int{4, 6} {
		for comm := 0; comm <= 2; comm++ {
			cfg := machine.Clustered(nc)
			cfg.CommLatency = comm
			for walk := 0; walk < 24; walk++ {
				l := loops[rng.Intn(len(loops))]
				steps := 0
				st.add(propagateWalk(t, l, cfg, walkII(l, cfg, rng.Intn(1<<16)), func(k int) int {
					if steps++; steps > 1600 {
						return -1
					}
					return rng.Intn(k)
				}))
			}
		}
	}
	t.Logf("%+v", st)
	if st.rejected == 0 || st.rejected == st.placements {
		t.Fatalf("walks never exercised both verdicts: %+v", st)
	}
	if st.reusedRejected == 0 || st.reusedRejected == st.reused {
		t.Fatalf("walks never reused both verdicts: %+v", st)
	}
}
