// Certified optimality: the Bound contract and the Effort: optimal ladder.
//
// The heuristic tiers (fast/balanced/exhaustive) stop at the first II any
// strategy schedules, which proves nothing about the IIs below it. The
// optimal tier closes that hole: it first runs the exhaustive portfolio for
// an incumbent, then walks every integer II from MII up to the incumbent
// and asks the exact branch-and-bound searcher (exact.go) the decision
// question "does any partitioned modulo schedule exist at this II?". Before
// it searches an II it applies the ring rule (ringRefutes below), which
// proves some IIs infeasible from the dependence cycles and the hop latency
// alone, at no search node. Each refuted or exhausted II raises the proved
// lower bound by one; the first feasible II replaces the incumbent and
// closes the gap. The result carries the certificate as Schedule.Bound
// (DESIGN.md §14).
//
// The ladder is anytime: it is cut at the node-budget boundary (a
// deterministic per-II cap derived from DefaultBudgetRatio) or at the
// context deadline, and in both cases the best incumbent — always a
// complete, verified schedule — is returned with Bound.Optimal=false.
// Budget cuts are deterministic and therefore cacheable; deadline cuts are
// wall-clock dependent and flagged DeadlineCut so the serving layer can
// keep them out of its caches.

package sched

import (
	"context"
	"math"
	"slices"

	"vliwq/internal/ir"
	"vliwq/internal/machine"
)

// Bound is the optimality certificate of a schedule produced at
// EffortOptimal. The zero value (Lower == 0) means no certificate
// was computed — the heuristic tiers never set one, which keeps their
// reports, golden files and cache entries byte-identical.
type Bound struct {
	// Lower is the proved lower bound on the initiation interval of any
	// partitioned modulo schedule for this (loop, machine) pair. It starts
	// at MII = max(ResMII, RecMII) and rises by one for every candidate II
	// that the ring rule refutes or the exact search exhausts without
	// finding a schedule; it never exceeds the achieved II.
	Lower int
	// Optimal reports that the search proved II == Lower: every smaller II
	// was refuted or exhausted, so no schedule with a smaller initiation
	// interval exists. False means the proof was cut (budget or deadline) with the
	// gap [Lower, II) still open — the schedule itself is still valid.
	Optimal bool
	// DeadlineCut reports that the proof search was interrupted by context
	// cancellation rather than by the deterministic node budget. Such a
	// certificate depends on wall-clock timing, so deadline-cut results
	// must not be cached under a canonical request key (the service's
	// cache layers give them the Share fate: served to the callers already
	// waiting on that compile, never kept); budget-cut results are
	// reproducible and cache normally. DeadlineCut is never true when
	// Optimal is true.
	DeadlineCut bool
}

// exactNodeBudgetPerRatio scales the budget ratio into the per-candidate-II
// search-node cap: DefaultBudgetRatio (6) allows 240k nodes per II. The
// cap is counted in placements tried, not in time, so it is identical on
// any machine — a budget-cut certificate is deterministic.
const exactNodeBudgetPerRatio = 40000

func exactNodeBudget(ratio int) int64 {
	return int64(ratio) * exactNodeBudgetPerRatio
}

// scheduleOptimal implements EffortOptimal. It obtains an
// incumbent from the heuristic portfolio (the same one the exhaustive tier
// runs), then certifies or improves it with the ring rule and the exact
// searcher, walking every integer II in [MII, incumbent II). Note the
// ladder deliberately does not use candidateIIs: a proof of optimality
// needs every integer rung, while the heuristic ladder is allowed to skip.
func scheduleOptimal(ctx context.Context, st *state, l *ir.Loop, cfg machine.Config, strats []Strategy, resMII, recMII int, lim limits) (*Schedule, error) {
	s, err := schedulePortfolio(st, l, cfg, strats, resMII, recMII, lim)
	if err != nil {
		return nil, err
	}
	mii := s.MII()
	s.Bound = Bound{Lower: mii}
	if s.II == mii {
		// The heuristic already reached the lower bound; MII-optimality
		// needs no search.
		s.Bound.Optimal = true
		return s, nil
	}
	// The exact model covers the pristine loop under the ring rule. Move
	// insertion grows the op set mid-search (so "no schedule at II" would
	// not be a sound lower bound for the moves-extended machine); such a
	// run keeps the trivial MII certificate.
	if cfg.AllowMoves || len(s.Loop.Ops) != len(l.Ops) {
		return s, nil
	}
	var ex *exactSearcher
	budget := exactNodeBudget(lim.budgetRatio)
	for ii := mii; ii < s.II; ii++ {
		if ctx.Err() != nil {
			s.Bound.DeadlineCut = true
			return s, nil
		}
		// scheduleLoop left l's SCC grouping in st.rec (recMIIInto), and
		// nothing since has overwritten it.
		if st.rec.ringRefutes(l, &cfg, ii) {
			s.Bound.Lower = ii + 1
			continue
		}
		if ex == nil {
			ex = newExactSearcher(l, &cfg)
		}
		res := ex.search(ctx, ii, budget)
		s.Stats.PrunedNodes += ex.pruned
		switch res {
		case exactFound:
			opt := ex.schedule(cfg, ii, resMII, recMII)
			// The incumbent's strategy and accumulated work carry over:
			// the exact schedule supersedes the portfolio's result, and
			// every smaller II was refuted or exhausted first, so ii is
			// proved optimal.
			opt.Strategy = s.Strategy
			opt.Stats = s.Stats
			opt.Bound = Bound{Lower: ii, Optimal: true}
			return opt, nil
		case exactInfeasible:
			s.Bound.Lower = ii + 1
		case exactAborted:
			s.Bound.DeadlineCut = ex.ctxCut
			return s, nil
		}
	}
	// Every II below the incumbent is refuted or exhausted: the heuristic
	// schedule was optimal all along.
	s.Bound.Optimal = true
	return s, nil
}

// ringBoundMaxSCC is the largest strongly connected component the ring
// rule examines. Its all-pairs longest paths cost about n³ per candidate
// II, so a larger component is skipped and the search alone decides. The
// cap is a fixed rule, not a knob, so certificates stay deterministic.
const ringBoundMaxSCC = 128

// noPath marks an absent path in the ring rule's longest-path matrix.
const noPath = math.MinInt

// ringRefutes is the ring rule: it reports whether no partitioned modulo
// schedule of l on cfg exists at ii, proved without a search. It reads the
// SCC grouping recMIIInto left in scr for l, and keeps its matrix, groups
// and windows in scr too. Within each component of at most
// ringBoundMaxSCC ops:
//
//   - every dependence gets its intra-cluster weight w = lat(from) −
//     ii·dist, a lower bound on its weight under any placement, and LP is
//     the all-pairs longest path under w (Floyd–Warshall). A path between
//     two ops of one component never leaves it, so LP is exact. A positive
//     cycle refutes ii outright (it cannot arise at ii >= RecMII);
//   - a flow dependence u→v with w + CommLatency + LP(v, u) > 0 keeps u
//     and v on one cluster, because crossing would close a positive cycle,
//     and such pairs join ops into groups that share a cluster;
//   - within a group t_b − t_a lies in [LP(a, b), −LP(b, a)], so relative
//     to an anchor op a each op b takes a cyclic window of rows. If a
//     cyclic interval of r rows fully contains the windows of more than
//     r·F ops of one class, where F is the most units of that class on any
//     one cluster, the group cannot fit its cluster at ii (Hall's
//     condition).
//
// At ii >= RecMII no cycle under w is positive, so without a hop no pair
// must share a cluster and the rule cannot refute: a machine without comm
// latency skips it.
func (scr *recScratch) ringRefutes(l *ir.Loop, cfg *machine.Config, ii int) bool {
	if cfg.CommLatency == 0 {
		return false
	}
	var most [machine.NumClasses]int
	for c := range cfg.Clusters {
		for k, n := range cfg.Clusters[c].FUs {
			most[k] = max(most[k], n)
		}
	}
	scr.pos = uninit(scr.pos, len(l.Ops))
	for s := 0; s < int(scr.ncomp); s++ {
		nodes := scr.nodes[scr.nOff[s]:scr.nOff[s+1]]
		edges := scr.edges[scr.eOff[s]:scr.eOff[s+1]]
		if len(nodes) < 2 || len(nodes) > ringBoundMaxSCC {
			continue
		}
		for i, v := range nodes {
			scr.pos[v] = int32(i)
		}
		if scr.longestPaths(nodes, edges, ii) {
			return true
		}
		scr.shareGroups(nodes, edges, cfg.CommLatency, ii)
		if scr.hallRefutes(l, nodes, &most, ii) {
			return true
		}
	}
	return false
}

// longestPaths fills scr.lp with the component's all-pairs longest paths
// under the intra-cluster weights at ii, indexed by position in nodes. It
// reports a positive cycle, and stops there so no path grows unbounded.
func (scr *recScratch) longestPaths(nodes []int32, edges []ir.Dep, ii int) bool {
	m := len(nodes)
	lp := refill(scr.lp, m*m, noPath)
	scr.lp = lp
	for i := 0; i < m; i++ {
		lp[i*m+i] = 0
	}
	for _, d := range edges {
		k := int(scr.pos[d.From])*m + int(scr.pos[d.To])
		lp[k] = max(lp[k], scr.lat[d.From]-ii*d.Dist)
	}
	for k := 0; k < m; k++ {
		rowK := lp[k*m : k*m+m]
		for i := 0; i < m; i++ {
			ik := lp[i*m+k]
			if ik == noPath {
				continue
			}
			rowI := lp[i*m : i*m+m]
			for j, kj := range rowK {
				if kj != noPath && ik+kj > rowI[j] {
					rowI[j] = ik + kj
				}
			}
			if rowI[i] > 0 {
				return true
			}
		}
	}
	return false
}

// shareGroups unions the component's ops that must share a cluster at ii
// in scr.grp, a union-find forest over positions in nodes, and leaves each
// position's root there.
func (scr *recScratch) shareGroups(nodes []int32, edges []ir.Dep, comm, ii int) {
	m := len(nodes)
	grp := uninit(scr.grp, m)
	scr.grp = grp
	for i := range grp {
		grp[i] = int32(i)
	}
	find := func(i int32) int32 {
		for grp[i] != i {
			grp[i] = grp[grp[i]]
			i = grp[i]
		}
		return i
	}
	for _, d := range edges {
		if d.Kind != ir.Flow || d.From == d.To {
			continue
		}
		u, v := scr.pos[d.From], scr.pos[d.To]
		if scr.lat[d.From]-ii*d.Dist+comm+scr.lp[int(v)*m+int(u)] > 0 {
			grp[find(u)] = find(v)
		}
	}
	for i := range grp {
		grp[i] = find(int32(i))
	}
}

// hallRefutes applies Hall's condition to every group shareGroups built:
// for each anchor a in a group and each class, the rows its ops of that
// class can take relative to a's row must not overfill any cyclic interval.
func (scr *recScratch) hallRefutes(l *ir.Loop, nodes []int32, most *[machine.NumClasses]int, ii int) bool {
	m := len(nodes)
	lp, grp := scr.lp, scr.grp
	for g := int32(0); int(g) < m; g++ {
		if grp[g] != g {
			continue
		}
		scr.members = scr.members[:0]
		for i := int32(0); int(i) < m; i++ {
			if grp[i] == g {
				scr.members = append(scr.members, i)
			}
		}
		if len(scr.members) < 2 {
			continue
		}
		for k := machine.FUClass(0); k < machine.NumClasses; k++ {
			scr.same = scr.same[:0]
			for _, b := range scr.members {
				if machine.ClassOf(l.Ops[nodes[b]].Kind) == k {
					scr.same = append(scr.same, b)
				}
			}
			if len(scr.same) < 2 {
				continue
			}
			f := most[k]
			if len(scr.same) > ii*f {
				return true
			}
			for _, a := range scr.members {
				scr.win = scr.win[:0]
				for _, b := range scr.same {
					lo, hi := lp[int(a)*m+int(b)], -lp[int(b)*m+int(a)]
					if span := hi - lo + 1; span < ii {
						_, start := floorDivMod(lo, ii)
						scr.win = append(scr.win, rowWindow{start, span})
					}
				}
				if scr.overfull(ii, f) {
					return true
				}
			}
		}
	}
	return false
}

// rowWindow is the cyclic run of rows [start, start+span) mod II an op can
// take relative to its group's anchor; only spans shorter than II are kept.
type rowWindow struct{ start, span int }

// overfull reports whether some cyclic interval of r < ii rows fully holds
// more than r·f of the windows in scr.win. An overfull interval stays
// overfull when it shrinks to start at a window's start, so only those
// starts are tried. From a start x each window has a key, the rows from x
// to its end, and it fits an interval of r rows from x iff its key is at
// most r: with the keys sorted, the j-th smallest key k is such an r with
// at least j windows inside.
func (scr *recScratch) overfull(ii, f int) bool {
	for _, x := range scr.win {
		scr.keys = scr.keys[:0]
		for _, w := range scr.win {
			off := w.start - x.start
			if off < 0 {
				off += ii
			}
			if key := off + w.span; key < ii {
				scr.keys = append(scr.keys, key)
			}
		}
		slices.Sort(scr.keys)
		for j, key := range scr.keys {
			if j+1 > key*f {
				return true
			}
		}
	}
	return false
}
