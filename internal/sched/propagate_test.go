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

// propagateWalk places and removes ops of l on cfg at ii through one
// exactSearcher, choosing each step with pick(k), which returns a choice
// in [0, k) or -1 to end the walk. After every placement it checks that
// propagate rejects exactly when the oracle finds a positive cycle, that
// an accepted placement leaves every placed potential at the oracle's
// least solution with no op left queued, and that unwinding a placement
// restores pot exactly. It returns the number of placements and of
// rejections.
func propagateWalk(t *testing.T, l *ir.Loop, cfg machine.Config, ii int, pick func(k int) int) (placements, rejected int) {
	t.Helper()
	ex := newExactSearcher(l, &cfg)
	ex.ii = ii
	n, nc := ex.n, cfg.NumClusters()
	type frame struct {
		x, mark int
		before  []int
	}
	var stack []frame
	pop := func() {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ex.unwind(f.mark)
		ex.placed[f.x] = false
		if !reflect.DeepEqual(ex.pot, f.before) {
			t.Fatalf("%s at II=%d: unwinding op %d left pot=%v, want %v", l.Name, ii, f.x, ex.pot, f.before)
		}
	}
	for {
		c := pick(4)
		if c < 0 {
			break
		}
		if len(stack) == n || (len(stack) > 0 && c == 0) {
			pop()
			continue
		}
		k := pick(n - len(stack))
		r, cl := pick(ii), pick(nc)
		if k < 0 || r < 0 || cl < 0 {
			break
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
		got := ex.propagate(x)
		placements++
		want, feasible := oracleStagePotentials(l, cfg, ii, ex.placed, ex.rowOf, ex.cluOf)
		if got != feasible {
			t.Fatalf("%s on %s (comm %d) at II=%d: placing op %d at (row %d, cluster %d) with %d ops placed: propagate=%v, oracle feasible=%v",
				l.Name, cfg.Name, cfg.CommLatency, ii, x, r, cl, len(stack), got, feasible)
		}
		for i, q := range ex.queued {
			if q {
				t.Fatalf("%s at II=%d: op %d still queued after propagate", l.Name, ii, i)
			}
		}
		if !got {
			rejected++
			pop()
			continue
		}
		for i := range want {
			if ex.placed[i] && ex.pot[i] != want[i] {
				t.Fatalf("%s on %s (comm %d) at II=%d: after placing op %d, pot[%d]=%d, least solution %d",
					l.Name, cfg.Name, cfg.CommLatency, ii, x, i, ex.pot[i], want[i])
			}
		}
	}
	for len(stack) > 0 {
		pop()
	}
	return placements, rejected
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
	placements, rejected := 0, 0
	for _, nc := range []int{4, 6} {
		for comm := 0; comm <= 2; comm++ {
			cfg := machine.Clustered(nc)
			cfg.CommLatency = comm
			for walk := 0; walk < 24; walk++ {
				l := loops[rng.Intn(len(loops))]
				steps := 0
				p, r := propagateWalk(t, l, cfg, walkII(l, cfg, rng.Intn(1<<16)), func(k int) int {
					if steps++; steps > 1600 {
						return -1
					}
					return rng.Intn(k)
				})
				placements += p
				rejected += r
			}
		}
	}
	t.Logf("%d placements, %d rejected", placements, rejected)
	if rejected == 0 || rejected == placements {
		t.Fatalf("walks never exercised both verdicts: %d placements, %d rejected", placements, rejected)
	}
}
