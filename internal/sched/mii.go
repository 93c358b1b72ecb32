package sched

import (
	"fmt"
	"math/bits"

	"vliwq/internal/ir"
	"vliwq/internal/machine"
)

// ResMII returns the resource-constrained lower bound on the initiation
// interval: for each FU class, the ceiling of (operations in the class) over
// (machine-wide units of the class). An error is returned when the loop
// uses a class the machine lacks entirely.
func ResMII(l *ir.Loop, cfg machine.Config) (int, error) {
	var ops [machine.NumClasses]int
	for _, op := range l.Ops {
		ops[machine.ClassOf(op.Kind)]++
	}
	fus := cfg.TotalFUs()
	mii := 1
	for c := machine.FUClass(0); c < machine.NumClasses; c++ {
		if ops[c] == 0 {
			continue
		}
		if fus[c] == 0 {
			return 0, fmt.Errorf("%w: %v (loop %q, machine %q)", ErrNoFU, c, l.Name, cfg.Name)
		}
		if b := (ops[c] + fus[c] - 1) / fus[c]; b > mii {
			mii = b
		}
	}
	return mii, nil
}

// resMIISubset computes ResMII using only the FUs of the cluster subset
// given as a mask (the compact fallback's resource bound).
func resMIISubset(l *ir.Loop, cfg machine.Config, clusters uint64) (int, error) {
	var ops [machine.NumClasses]int
	for _, op := range l.Ops {
		ops[machine.ClassOf(op.Kind)]++
	}
	var fus [machine.NumClasses]int
	for m := clusters; m != 0; m &= m - 1 {
		c := bits.TrailingZeros64(m)
		if c >= cfg.NumClusters() {
			continue
		}
		for i, n := range cfg.Clusters[c].FUs {
			fus[i] += n
		}
	}
	mii := 1
	for c := machine.FUClass(0); c < machine.NumClasses; c++ {
		if ops[c] == 0 {
			continue
		}
		if fus[c] == 0 {
			// The subset lacks the class; findSlot escapes the subset for
			// those ops, so approximate with one machine-wide unit.
			total := cfg.TotalFUs()
			if total[c] == 0 {
				return 0, fmt.Errorf("%w: %v", ErrNoFU, c)
			}
			if ops[c] > mii {
				mii = ops[c]
			}
			continue
		}
		if b := (ops[c] + fus[c] - 1) / fus[c]; b > mii {
			mii = b
		}
	}
	return mii, nil
}

// RecMII returns the recurrence-constrained lower bound on the initiation
// interval: the smallest II such that the dependence graph with edge
// weights latency(from) - II*distance contains no positive-weight cycle.
// Equivalently, max over elementary circuits of
// ceil(total latency / total distance). Loops without dependence cycles
// have RecMII 1.
//
// It runs in a pooled scheduling state's recScratch, so a call allocates
// nothing once its processor's arena has seen a loop as large.
func RecMII(l *ir.Loop) int {
	st := statePool.Get().(*state)
	defer statePool.Put(st)
	return recMIIInto(l, &st.rec)
}

// recScratch is the arena for recMIIInto: the successor index, Tarjan SCC
// state, the component-grouped node/edge views and the Bellman-Ford
// distance array. It lives in the scheduling state (ims.go), so RecMII and
// the lower bounds of every ScheduleLoop call reuse the buffers of a
// pooled state.
type recScratch struct {
	lat   []int
	succ  ir.DepIndex // dependences leaving each op
	cur   []int32     // counting-sort cursors
	index []int32     // Tarjan discovery index, 0 = unvisited
	low   []int32
	comp  []int32 // SCC id per node
	stack []int32
	onStk []bool
	nodes []int32  // node ids grouped by SCC
	nOff  []int32  // per-SCC offsets into nodes
	edges []ir.Dep // intra-SCC edges grouped by SCC
	eOff  []int32  // per-SCC offsets into edges
	dist  []int
	next  int32 // Tarjan index counter
	ncomp int32
}

// recMIIInto computes RecMII with the work confined to where cycles can
// live: every dependence cycle lies inside one strongly connected
// component, so the graph is SCC-decomposed (Tarjan) and each component
// runs its own binary search with a component-local Bellman-Ford and a
// component-local upper bound (its latency sum). The global RecMII is the
// maximum over components; components whose upper bound cannot exceed the
// running best — or that have no positive cycle at the running best — are
// skipped without a search. On the acyclic majority of the graph this does
// no Bellman-Ford work at all, where the reference implementation's probes
// relax every edge n times.
func recMIIInto(l *ir.Loop, scr *recScratch) int {
	n := len(l.Ops)
	if n == 0 || len(l.Deps) == 0 {
		return 1
	}
	scr.lat = uninit(scr.lat, n)
	for i, op := range l.Ops {
		scr.lat[i] = op.Kind.Latency()
	}
	// Tarjan SCC over the successor index.
	l.IndexDeps(&scr.succ, ir.AllDeps, true)
	scr.index = refill(scr.index, n, 0)
	scr.low = uninit(scr.low, n)
	scr.comp = uninit(scr.comp, n)
	scr.onStk = refill(scr.onStk, n, false)
	scr.stack = scr.stack[:0]
	scr.next = 1
	scr.ncomp = 0
	for v := 0; v < n; v++ {
		if scr.index[v] == 0 {
			scr.strongconnect(l.Deps, int32(v))
		}
	}
	// Group nodes and intra-SCC edges by component.
	nc := int(scr.ncomp)
	scr.nOff = refill(scr.nOff, nc+1, 0)
	for v := 0; v < n; v++ {
		scr.nOff[scr.comp[v]+1]++
	}
	for s := 0; s < nc; s++ {
		scr.nOff[s+1] += scr.nOff[s]
	}
	scr.nodes = uninit(scr.nodes, n)
	scr.cur = uninit(scr.cur, nc)
	copy(scr.cur, scr.nOff[:nc])
	for v := 0; v < n; v++ {
		s := scr.comp[v]
		scr.nodes[scr.cur[s]] = int32(v)
		scr.cur[s]++
	}
	scr.eOff = refill(scr.eOff, nc+1, 0)
	ne := 0
	for _, d := range l.Deps {
		if scr.comp[d.From] == scr.comp[d.To] {
			scr.eOff[scr.comp[d.From]+1]++
			ne++
		}
	}
	for s := 0; s < nc; s++ {
		scr.eOff[s+1] += scr.eOff[s]
	}
	scr.edges = uninit(scr.edges, ne)
	scr.cur = uninit(scr.cur, nc)
	copy(scr.cur, scr.eOff[:nc])
	for _, d := range l.Deps {
		if s := scr.comp[d.From]; s == scr.comp[d.To] {
			scr.edges[scr.cur[s]] = d
			scr.cur[s]++
		}
	}
	// Per-component binary search. The skip tests keep the max over
	// components exact: a component's RecMII is at most its latency sum
	// (every circuit has distance >= 1), and a component with no positive
	// cycle at the running best cannot raise it.
	scr.dist = uninit(scr.dist, n)
	best := 1
	for s := 0; s < nc; s++ {
		edges := scr.edges[scr.eOff[s]:scr.eOff[s+1]]
		if len(edges) == 0 {
			continue // singleton SCC without a self-loop: acyclic
		}
		nodes := scr.nodes[scr.nOff[s]:scr.nOff[s+1]]
		hi := 0
		for _, v := range nodes {
			hi += scr.lat[v]
		}
		if hi <= best {
			continue
		}
		if len(nodes) == 1 {
			// Singleton SCC: every intra-SCC edge is a self-loop, and the
			// circuit through a self-loop of distance d bounds the II at
			// ceil(latency/d) directly — no Bellman-Ford needed. This is the
			// common shape (accumulators, induction variables), so it keeps
			// the binary search off the hot path entirely.
			v := nodes[0]
			for _, d := range edges {
				if d.Dist == 0 {
					// Zero-distance self cycle; cannot happen for validated
					// loops, but degrade like the generic path (hi+1).
					if b := scr.lat[v] + 1; b > best {
						best = b
					}
					continue
				}
				if b := (scr.lat[v] + d.Dist - 1) / d.Dist; b > best {
					best = b
				}
			}
			continue
		}
		if !scr.posCycle(nodes, edges, best) {
			continue
		}
		if scr.posCycle(nodes, edges, hi) {
			// Zero-distance cycle; cannot happen for validated loops, but
			// degrade gracefully like the reference.
			best = hi + 1
			continue
		}
		lo, h := best+1, hi
		for lo < h {
			mid := (lo + h) / 2
			if scr.posCycle(nodes, edges, mid) {
				lo = mid + 1
			} else {
				h = mid
			}
		}
		best = lo
	}
	return best
}

// strongconnect is Tarjan's recursive DFS over the scratch's successor
// index of deps. Depth is bounded by the op count (loops are at most a few
// hundred ops), so plain recursion beats an explicit frame stack.
func (scr *recScratch) strongconnect(deps []ir.Dep, v int32) {
	scr.index[v] = scr.next
	scr.low[v] = scr.next
	scr.next++
	scr.stack = append(scr.stack, v)
	scr.onStk[v] = true
	for _, e := range scr.succ.At(int(v)) {
		w := int32(deps[e].To)
		if scr.index[w] == 0 {
			scr.strongconnect(deps, w)
			if scr.low[w] < scr.low[v] {
				scr.low[v] = scr.low[w]
			}
		} else if scr.onStk[w] && scr.index[w] < scr.low[v] {
			scr.low[v] = scr.index[w]
		}
	}
	if scr.low[v] == scr.index[v] {
		for {
			w := scr.stack[len(scr.stack)-1]
			scr.stack = scr.stack[:len(scr.stack)-1]
			scr.onStk[w] = false
			scr.comp[w] = scr.ncomp
			if w == v {
				break
			}
		}
		scr.ncomp++
	}
}

// posCycle reports whether the component has a positive-weight cycle at the
// given II (Bellman-Ford longest-path relaxation restricted to the
// component's nodes and edges; a cycle that still relaxes after |nodes|
// passes is positive).
func (scr *recScratch) posCycle(nodes []int32, edges []ir.Dep, ii int) bool {
	for _, v := range nodes {
		scr.dist[v] = 0
	}
	for range nodes {
		changed := false
		for _, d := range edges {
			w := scr.lat[d.From] - ii*d.Dist
			if nd := scr.dist[d.From] + w; nd > scr.dist[d.To] {
				scr.dist[d.To] = nd
				changed = true
			}
		}
		if !changed {
			return false
		}
	}
	for _, d := range edges {
		w := scr.lat[d.From] - ii*d.Dist
		if scr.dist[d.From]+w > scr.dist[d.To] {
			return true
		}
	}
	return false
}
