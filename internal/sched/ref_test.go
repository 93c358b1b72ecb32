package sched

import (
	"vliwq/internal/ir"
	"vliwq/internal/machine"
)

// This file retains the scalar reference implementations the scheduler's
// fast paths are tested against: the pre-bitset slot search (findSlotRef,
// clusterPrefsRef, forceSlotRef over the occupant-list probe freeScalar)
// and the whole-graph RecMII searches (recMIIRef, recMIIBrute). They are
// test oracles, not a mode: the lockstep test (differential_test.go)
// advances one state through findSlot/forceSlot/settle and another through
// these functions and settleSlow, and demands the same op, slot and
// placement arrays after every step. Any change to the search semantics
// must land in both implementations or that test fails.

// freeScalar is the scalar reference for mrt.free: the occupant-list length
// check the pre-bitset scheduler used.
func (m *mrt) freeScalar(row, cluster int, class machine.FUClass) bool {
	return len(m.at(row, cluster)[class]) < m.cfg.FUCount(cluster, class)
}

// earliestStart returns the earliest issue cycle permitted by the scheduled
// predecessors of id, ignoring communication latency (findSlotRef folds
// that into its per-cluster earliest cycle). It recomputes from the op
// kinds rather than the state's latency table.
func (st *state) earliestStart(id int) int {
	estart := 0
	for _, d := range st.preds.At(id) {
		if tf := st.time[d.From]; tf >= 0 {
			if e := tf + st.loop.Ops[d.From].Kind.Latency() - st.ii*d.Dist; e > estart {
				estart = e
			}
		}
	}
	return estart
}

// findSlotRef is the scalar reference for findSlot: per-cluster earliest
// cycles and adjacency verdicts in flat arrays, then a lexicographic scan
// of (cycle, preference-order cluster) pairs probing the occupant-list
// lengths. The packed implementation must return exactly this slot.
func (st *state) findSlotRef(id, estart int) (int, int, bool) {
	prefs := st.clusterPrefsRef(id)
	if len(prefs) == 0 {
		return 0, 0, false
	}
	nc := st.cfg.NumClusters()
	minT := make([]int, nc)
	adjOK := make([]bool, nc)
	for _, c := range prefs {
		req := 0
		for _, d := range st.preds.At(id) {
			tf := st.time[d.From]
			if tf < 0 {
				continue
			}
			lat := st.loop.Ops[d.From].Kind.Latency()
			if d.Kind == ir.Flow && st.cluster[d.From] != c {
				lat += st.cfg.CommLatency
			}
			if r := tf + lat - st.ii*d.Dist; r > req {
				req = r
			}
		}
		minT[c] = req
		ok := true
		for _, d := range st.preds.At(id) {
			if d.Kind == ir.Flow && st.time[d.From] >= 0 && !st.cfg.Adjacent(st.cluster[d.From], c) {
				ok = false
				break
			}
		}
		if ok {
			for _, d := range st.succs.At(id) {
				if d.Kind == ir.Flow && st.time[d.To] >= 0 && !st.cfg.Adjacent(c, st.cluster[d.To]) {
					ok = false
					break
				}
			}
		}
		adjOK[c] = ok
	}
	class := machine.ClassOf(st.loop.Ops[id].Kind)
	pinned := st.pinned[id]
	passes := 1
	if st.cfg.AllowMoves && pinned < 0 {
		passes = 2
	}
	for pass := 0; pass < passes; pass++ {
		requireAdj := pass == 0
		for t := estart; t < estart+st.ii; t++ {
			for _, c := range prefs {
				if pinned >= 0 && c != pinned {
					continue
				}
				if requireAdj && !adjOK[c] {
					continue
				}
				if t < minT[c] {
					continue
				}
				if st.table.freeScalar(t%st.ii, c, class) {
					return t, c, true
				}
			}
		}
	}
	return 0, 0, false
}

// forceSlotRef is the scalar reference for forceSlot: the same progress
// rule, then the ordered preference list — first cluster with a free unit
// at the row, else evict from the top preference — probing occupant-list
// lengths instead of the packed bitmaps.
func (st *state) forceSlotRef(id, estart int, wl *worklist) (int, int, bool) {
	t := estart
	if !st.never[id] && st.prevTime[id]+1 > t {
		t = st.prevTime[id] + 1
	}
	class := machine.ClassOf(st.loop.Ops[id].Kind)
	if p := st.pinned[id]; p >= 0 {
		if st.table.freeScalar(t%st.ii, p, class) {
			return t, p, true
		}
		return st.evictLowest(t, p, class, wl)
	}
	prefs := st.clusterPrefsRef(id)
	if len(prefs) == 0 {
		return 0, 0, false
	}
	for _, c := range prefs {
		if st.table.freeScalar(t%st.ii, c, class) {
			return t, c, true
		}
	}
	return st.evictLowest(t, prefs[0], class, wl)
}

// clusterPrefsRef is the scalar reference for the preference order prefKey
// ranks: it re-walks the op's edge lists once per candidate cluster instead
// of gathering the per-cluster counters in one pass, then insertion-sorts
// the key vectors. In compact mode it is an ordered scan of its own: the
// subset's clusters offering the class, in index order, or else the lowest
// cluster offering it.
func (st *state) clusterPrefsRef(id int) []int {
	class := machine.ClassOf(st.loop.Ops[id].Kind)
	nc := st.cfg.NumClusters()
	if st.allowed != 0 {
		var out []int
		for c := 0; c < nc; c++ {
			if st.allowed>>uint(c)&1 == 1 && st.cfg.FUCount(c, class) > 0 {
				out = append(out, c)
			}
		}
		for c := 0; c < nc && len(out) == 0; c++ {
			if st.cfg.FUCount(c, class) > 0 {
				out = append(out, c)
			}
		}
		return out
	}
	var prefs []clusterPref
	for c := 0; c < nc; c++ {
		if st.cfg.FUCount(c, class) == 0 {
			continue
		}
		// neigh counts already-scheduled flow neighbours on c; commDist
		// sums their ring distances to c (the copy/communication cost of
		// placing the op there).
		neigh, commDist := 0, 0
		for _, d := range st.preds.At(id) {
			if d.Kind == ir.Flow && st.time[d.From] >= 0 {
				if st.cluster[d.From] == c {
					neigh++
				}
				commDist += st.cfg.RingDistance(st.cluster[d.From], c)
			}
		}
		for _, d := range st.succs.At(id) {
			if d.Kind == ir.Flow && st.time[d.To] >= 0 {
				if st.cluster[d.To] == c {
					neigh++
				}
				commDist += st.cfg.RingDistance(st.cluster[d.To], c)
			}
		}
		p := clusterPref{c: c}
		switch st.strat {
		case StrategyLoadBalanced:
			p.k1, p.k2 = st.load[c], -neigh
		case StrategyAffinity:
			p.k1, p.k2 = commDist, -neigh
		case StrategyRoundRobin:
			p.k1 = st.cfg.RingDistance(id%nc, c)
		case StrategyPerturb:
			h := prefHash(id, c)
			p.k1, p.k2, p.k3 = -neigh, st.load[c]+int(h&1), int(h>>1&0xffff)
		default: // StrategyBaseline
			p.k1, p.k2 = -neigh, st.load[c]
		}
		i := len(prefs)
		prefs = append(prefs, p)
		for i > 0 && p.before(prefs[i-1]) {
			prefs[i] = prefs[i-1]
			i--
		}
		prefs[i] = p
	}
	out := make([]int, len(prefs))
	for i, p := range prefs {
		out[i] = p.c
	}
	return out
}

// recMIIRef is the scalar reference for RecMII: one global binary search
// over the whole graph, each probe a whole-graph Bellman-Ford. The SCC
// decomposition in recMIIInto must return the same value on every valid
// loop; the differential harness pins the agreement on randomized graphs.
func recMIIRef(l *ir.Loop) int {
	// Positive-cycle existence is monotonically non-increasing in II, so
	// binary-search the smallest II free of positive cycles. One scratch
	// buffer serves every Bellman-Ford probe of the search.
	scratch := make([]int, len(l.Ops))
	lo, hi := 1, l.SumLatency()
	if hi < 1 {
		hi = 1
	}
	if !hasPositiveCycle(l, hi, scratch) {
		for lo < hi {
			mid := (lo + hi) / 2
			if hasPositiveCycle(l, mid, scratch) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
	} else {
		// Cannot happen for validated loops (II = sum of latencies always
		// breaks every circuit since each circuit has distance >= 1), but
		// degrade gracefully.
		lo = hi + 1
	}
	return lo
}

// hasPositiveCycle reports whether the dependence graph has a cycle of
// positive total weight with edge weight latency(from) - II*dist
// (Bellman-Ford longest-path relaxation from a virtual source). scratch
// must hold len(l.Ops) elements; it is overwritten.
func hasPositiveCycle(l *ir.Loop, ii int, scratch []int) bool {
	n := len(l.Ops)
	dist := scratch[:n] // virtual source connects to all with weight 0
	for i := range dist {
		dist[i] = 0
	}
	for iter := 0; iter < n; iter++ {
		changed := false
		for _, d := range l.Deps {
			w := l.Ops[d.From].Kind.Latency() - ii*d.Dist
			if nd := dist[d.From] + w; nd > dist[d.To] {
				dist[d.To] = nd
				changed = true
			}
		}
		if !changed {
			return false
		}
	}
	// Still relaxing after n passes: positive cycle.
	for _, d := range l.Deps {
		w := l.Ops[d.From].Kind.Latency() - ii*d.Dist
		if dist[d.From]+w > dist[d.To] {
			return true
		}
	}
	return false
}

// recMIIBrute computes RecMII by enumerating all elementary circuits (DFS
// with a bounded path length). It is exponential and validates RecMII on
// small graphs.
func recMIIBrute(l *ir.Loop, maxLen int) int {
	n := len(l.Ops)
	var succ ir.Adj
	l.SuccsInto(&succ)
	best := 1
	var path []ir.Dep
	onPath := make([]bool, n)
	var dfs func(start, cur int)
	dfs = func(start, cur int) {
		if len(path) > maxLen {
			return
		}
		for _, d := range succ.At(cur) {
			if d.To == start && len(path) >= 0 {
				lat, dist := 0, 0
				for _, e := range path {
					lat += l.Ops[e.From].Kind.Latency()
					dist += e.Dist
				}
				lat += l.Ops[d.From].Kind.Latency()
				dist += d.Dist
				if dist > 0 {
					if b := (lat + dist - 1) / dist; b > best {
						best = b
					}
				}
				continue
			}
			if d.To < start || onPath[d.To] {
				// Enumerate each circuit once: only visit nodes >= start.
				continue
			}
			onPath[d.To] = true
			path = append(path, d)
			dfs(start, d.To)
			path = path[:len(path)-1]
			onPath[d.To] = false
		}
	}
	for s := 0; s < n; s++ {
		onPath[s] = true
		dfs(s, s)
		onPath[s] = false
	}
	return best
}
