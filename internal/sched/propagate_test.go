package sched

// The independent oracle for the exact search's stage-potential
// propagation (exact.go, DESIGN.md §14 rule 4). propagate answers two
// questions incrementally — does the placed subgraph have a positive
// cycle, and if not, what is its least non-negative stage assignment — and
// the oracle answers both from scratch with a plain Bellman–Ford over the
// placed subgraph. The weights it relaxes are kept incrementally across a
// cluster's rows (activate, advance) and are held to weight, which
// computes each one from scratch. Random placement walks, backtracking
// through the undo log and moving up a cluster's rows the way dfs does,
// drive the searcher directly, so the check covers placements and orders
// the search itself would never try.

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

// weight is the reference for the incremental weights activate and advance
// keep in ex.w: the stage-difference coefficient of dependence e between
// placed endpoints, which the schedule needs pot[to] - pot[from] to reach,
// computed from the endpoints' rows and clusters alone as
// ceil((L + row[from] - row[to]) / II) - dist, with L including the
// cross-cluster communication latency for flow dependences.
func weight(ex *exactSearcher, e int32) int {
	t := &ex.deps
	f, v := t.from[e], t.to[e]
	l := ex.lat[f] + int(ex.rowOf[f]) - int(ex.rowOf[v])
	if t.flow[e] && ex.cluOf[f] != ex.cluOf[v] {
		l += ex.cfg.CommLatency
	}
	return ceilDiv(l, ex.ii) - t.dist[e]
}

func ceilDiv(a, b int) int {
	if a >= 0 {
		return (a + b - 1) / b
	}
	return -((-a) / b)
}

// walkStats counts what one propagateWalk did: placements (fresh or moved),
// rejections among them, the moves that reused the previous row's
// propagation, with the rejections among those, and the accepted moves
// whose lookahead was held to the verdict of their cluster's first accepted
// row, with the failed verdicts among those.
type walkStats struct {
	placements, rejected, reused, reusedRejected, looked, lookFailed int
}

func (w *walkStats) add(o walkStats) {
	w.placements += o.placements
	w.rejected += o.rejected
	w.reused += o.reused
	w.reusedRejected += o.reusedRejected
	w.looked += o.looked
	w.lookFailed += o.lookFailed
}

// propagateWalk places, moves and removes ops of l on cfg at ii through one
// exactSearcher, choosing each step with pick(k), which returns a choice
// in [0, k) or -1 to end the walk. It drives the searcher as dfs does, and
// reserves every placed op's slot in the search's table, skipping a full
// one. A placement activates x's weights and the rows where they step,
// then propagates. A move puts the top op on a higher free row of its
// cluster, the next sibling dfs would try: with no step at or below that
// row it keeps the previous row's verdict and potentials without
// propagating (DESIGN.md §14 rule 4); otherwise it applies only those
// steps, unwinds and propagates afresh. From a cluster's top free row the
// op moves to another (cluster, row) and activates from scratch. After
// every placement and move it checks each weight between placed ops
// against weight, the verdict against the oracle's (a positive cycle
// exactly when it rejects), that an accepted placement leaves every placed
// potential at the oracle's least solution with no op left queued, that an
// accepted move's lookahead matches its cluster's first accepted row's,
// and that unwinding a placement restores pot exactly; every walk ends by
// unwinding each placement still on its stack.
func propagateWalk(t *testing.T, l *ir.Loop, cfg machine.Config, ii int, pick func(k int) int) walkStats {
	t.Helper()
	ex := newExactSearcher(l, &cfg)
	ex.ii = ii
	ex.table.reset(ii, &cfg)
	n, nc := ex.n, cfg.NumClusters()
	type frame struct {
		x, mark int
		before  []int
		next    int  // lowest row at which one of x's weights steps
		ok      bool // the op's current row was accepted
		// look is the lookahead verdict at the first accepted row of the
		// op's current cluster, once looked.
		look, looked bool
	}
	var stack []frame
	var st walkStats
	pop := func() {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ex.unwind(f.mark)
		ex.placed[f.x] = false
		ex.table.remove(int(ex.rowOf[f.x]), int(ex.cluOf[f.x]), ex.class[f.x])
		if !reflect.DeepEqual(ex.pot, f.before) {
			t.Fatalf("%s at II=%d: unwinding op %d left pot=%v, want %v", l.Name, ii, f.x, ex.pot, f.before)
		}
	}
	// check holds the top frame's weights, verdict, potentials and
	// lookahead to their references.
	check := func(how string) {
		f := &stack[len(stack)-1]
		x, r, cl := f.x, ex.rowOf[f.x], ex.cluOf[f.x]
		st.placements++
		for e := range l.Deps {
			if d := l.Deps[e]; ex.placed[d.From] && ex.placed[d.To] && ex.w[e] != weight(ex, int32(e)) {
				t.Fatalf("%s on %s (comm %d) at II=%d: after %s op %d at (row %d, cluster %d), dependence %d (%d->%d) has weight %d, want %d",
					l.Name, cfg.Name, cfg.CommLatency, ii, how, x, r, cl, e, d.From, d.To, ex.w[e], weight(ex, int32(e)))
			}
		}
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
		look := ex.lookahead(x)
		if !f.looked {
			f.look, f.looked = look, true
			return
		}
		st.looked++
		if !look {
			st.lookFailed++
		}
		if look != f.look {
			t.Fatalf("%s on %s (comm %d) at II=%d: after %s op %d to row %d of cluster %d, lookahead=%v, but %v at the cluster's first accepted row",
				l.Name, cfg.Name, cfg.CommLatency, ii, how, x, r, cl, look, f.look)
		}
	}
	// fresh activates the top op from scratch at its row and cluster, as
	// dfs does at a cluster's first free row, and propagates.
	fresh := func(how string) {
		f := &stack[len(stack)-1]
		ex.placed[f.x] = true
		f.next = ex.activate(f.x)
		f.looked = false
		ex.unwind(f.mark)
		if !reflect.DeepEqual(ex.pot, f.before) {
			t.Fatalf("%s at II=%d: unwinding op %d before %s it left pot=%v, want %v", l.Name, ii, f.x, how, ex.pot, f.before)
		}
		f.ok = ex.propagate(f.x)
		check(how)
	}
walk:
	for {
		c := pick(4)
		if c < 0 {
			break
		}
		top := len(stack) - 1
		switch {
		case top >= 0 && c == 1:
			f := &stack[top]
			x, class := f.x, ex.class[f.x]
			r0, c0 := int(ex.rowOf[x]), int(ex.cluOf[x])
			r := -1
			if r0+1 < ii {
				d := pick(ii - 1 - r0)
				if d < 0 {
					break walk
				}
				for q := r0 + 1 + d; q < ii && r < 0; q++ {
					if ex.table.free(q, c0, class) {
						r = q
					}
				}
			}
			if r < 0 {
				// No free row above: like dfs at its next cluster, take
				// another slot and activate from scratch.
				r, cl := pick(ii), pick(nc)
				if r < 0 || cl < 0 {
					break walk
				}
				ex.table.remove(r0, c0, class)
				if !ex.table.free(r, cl, class) {
					ex.table.add(r0, c0, class)
					continue
				}
				ex.table.add(r, cl, class)
				ex.rowOf[x], ex.cluOf[x] = int32(r), int32(cl)
				fresh("moving to another cluster")
				continue
			}
			// The next sibling dfs would try at this node.
			ex.table.remove(r0, c0, class)
			ex.table.add(r, c0, class)
			ex.placed[x] = true
			ex.rowOf[x] = int32(r)
			if r < f.next {
				st.reused++
				if !f.ok {
					st.reusedRejected++
				}
				check("reusing the previous row's propagation for")
				continue
			}
			f.next = ex.advance(x, r)
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
			if !ex.table.free(r, cl, ex.class[x]) {
				continue
			}
			ex.table.add(r, cl, ex.class[x])
			ex.rowOf[x], ex.cluOf[x] = int32(r), int32(cl)
			stack = append(stack, frame{x: x, mark: len(ex.undo), before: append([]int(nil), ex.pot...)})
			fresh("placing")
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
// holds the weights to weight, propagate to the Bellman–Ford oracle and
// lookahead to its cluster's first verdict at every step. The seed is
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
	if st.lookFailed == 0 || st.lookFailed == st.looked {
		t.Fatalf("walks never held both lookahead verdicts to their cluster's first: %+v", st)
	}
}
