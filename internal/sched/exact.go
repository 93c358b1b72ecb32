// The exact branch-and-bound searcher behind EffortOptimal.
//
// For one candidate II the searcher answers the exact decision question:
// does ANY partitioned modulo schedule at this II exist? It branches over
// (cluster, row) assignments per operation in a fixed static order and
// prunes with the same packed machinery the heuristic scheduler uses
// (DESIGN.md §14):
//
//   - the bitset MRT row-full words (§13) reject saturated (row, cluster,
//     class) slots with one AND;
//   - the ring-adjacency cluster masks cut the cluster dimension to the
//     intersection of the placed flow neighbours' adjacency words;
//   - a forward occupancy check prunes a placement whose unplaced flow
//     neighbours would be left without any adjacent, capable, non-full
//     cluster (the resource-class occupancy bound);
//   - a difference-constraint propagation over stage potentials rejects
//     placements whose timing constraints form a positive-weight cycle —
//     the same positive-cycle criterion RecMII is built on (mii.go). The
//     placed ops had no such cycle before x was placed, so any new one
//     runs through x: the relaxation rejects the placement the first time
//     it would raise x's own potential.
//
// The key to exactness without a schedule-length horizon: a row/cluster
// assignment extends to concrete start cycles t = row + II*k if and only if
// the stage counters k satisfy the difference constraints
// k[to] - k[from] >= ceil((L + row[from] - row[to]) / II) - dist for every
// dependence, which holds iff the constraint graph has no positive cycle.
// Rows and clusters are the only finite decisions; the unbounded time
// dimension is discharged by the cycle test, so an exhausted search is a
// proof that no schedule at this II exists, not merely that none was found
// within a horizon.
//
// Per node the searcher walks the loop's ir.DepIndex in each direction
// (per-op in- and out-lists of dependence indices over flat
// from/to/dist/flow columns), and each dependence's stage weight is
// computed once, when its second endpoint is placed: it depends only on
// the two endpoints' rows and clusters, so it stays valid, with no undo,
// for as long as both remain placed.
//
// Determinism: the static op order (height desc, ID asc), the candidate
// order (cluster asc, row asc) and the node budget are all independent of
// timing, so identical inputs explore the identical tree.
// Rotation symmetry is broken once: the first placed op is pinned to row 0,
// and — on machines whose clusters are identical — to cluster 0, since any
// schedule can be rotated in time and around the ring to such a
// representative.

package sched

import (
	"context"
	"math/bits"
	"sort"

	"vliwq/internal/ir"
	"vliwq/internal/machine"
)

// exactStatus is the outcome of one exact search (or subtree).
type exactStatus int

const (
	// exactFound: a complete placement exists; the searcher state holds it.
	exactFound exactStatus = iota
	// exactInfeasible: the search space is exhausted — a proof that no
	// schedule at this II exists (for a subtree: no completion exists).
	exactInfeasible
	// exactAborted: the node budget or the context deadline cut the search
	// before exhaustion; nothing is proved about this II.
	exactAborted
)

// exactSearcher is the per-loop search arena, reused across the II ladder
// of one scheduleOptimal call.
type exactSearcher struct {
	l   *ir.Loop
	cfg *machine.Config
	n   int
	ii  int

	lat       []int
	class     []machine.FUClass
	deps      depTable
	adjMasks  []uint64
	classMask [machine.NumClasses]uint64
	symmetric bool // identical clusters: ring rotation is an automorphism

	order  []int32 // static placement order: height desc, then ID asc
	height []int

	table  mrt
	placed []bool
	rowOf  []int32
	cluOf  []int32

	// Stage-potential state for the difference-constraint propagation.
	pot    []int  // k[i]: stage counter witness, >= 0
	w      []int  // per dependence: its weight, valid while both ends are placed
	queued []bool // op is waiting in queue
	queue  []int32
	undo   []potUndo

	ctx    context.Context
	budget int64
	nodes  int64 // placements tried this search (the budget unit)
	pruned int64 // candidate placements rejected by a pruning rule
	ctxCut bool  // the abort came from ctx, not the node budget
}

// depTable is the searcher's flat view of the loop's dependences: one
// column per field, indexed by position in Loop.Deps, and the dependence
// indices entering (in) and leaving (out) each op, in Deps order.
type depTable struct {
	from, to []int32
	dist     []int
	flow     []bool // flow dependence: pays the hop latency, constrains the partition
	in, out  ir.DepIndex
}

// newDepTable builds the columns and both directions of the index for l.
func newDepTable(l *ir.Loop) depTable {
	m := len(l.Deps)
	t := depTable{
		from: make([]int32, m),
		to:   make([]int32, m),
		dist: make([]int, m),
		flow: make([]bool, m),
	}
	l.IndexDeps(&t.in, ir.AllDeps, false)
	l.IndexDeps(&t.out, ir.AllDeps, true)
	for e, d := range l.Deps {
		t.from[e], t.to[e] = int32(d.From), int32(d.To)
		t.dist[e] = d.Dist
		t.flow[e] = d.Kind == ir.Flow
	}
	return t
}

// potUndo records one potential overwrite so backtracking restores the
// exact pre-placement fixpoint.
type potUndo struct {
	id  int32
	pot int
}

// symmetricClusters reports whether every cluster is identical, in which
// case rotating cluster indices is an automorphism of the ring machine and
// the search may pin the first operation's cluster.
func symmetricClusters(cfg *machine.Config) bool {
	for i := 1; i < cfg.NumClusters(); i++ {
		if cfg.Clusters[i] != cfg.Clusters[0] {
			return false
		}
	}
	return true
}

// newExactSearcher builds the arena for one pristine loop on one machine.
// Config.Validate guarantees NumClusters <= machine.MaxClusters, so the
// packed one-bit-per-cluster masks fit.
func newExactSearcher(l *ir.Loop, cfg *machine.Config) *exactSearcher {
	n := len(l.Ops)
	ex := &exactSearcher{l: l, cfg: cfg, n: n}
	ex.lat = make([]int, n)
	ex.class = make([]machine.FUClass, n)
	for i, op := range l.Ops {
		ex.lat[i] = op.Kind.Latency()
		ex.class[i] = machine.ClassOf(op.Kind)
	}
	ex.deps = newDepTable(l)
	ex.adjMasks = make([]uint64, cfg.NumClusters())
	_, ex.classMask = maskInto(ex.adjMasks, cfg)
	ex.symmetric = symmetricClusters(cfg)
	ex.order = make([]int32, n)
	ex.placed = make([]bool, n)
	ex.rowOf = make([]int32, n)
	ex.cluOf = make([]int32, n)
	ex.pot = make([]int, n)
	ex.w = make([]int, len(l.Deps))
	ex.queued = make([]bool, n)
	return ex
}

// search runs the exact decision procedure for one II under a node budget
// and a context. On exactFound the searcher holds the complete placement
// (read it with schedule); on exactAborted, ctxCut tells a deadline cut
// from a budget cut.
func (ex *exactSearcher) search(ctx context.Context, ii int, budget int64) exactStatus {
	ex.ii = ii
	ex.ctx = ctx
	ex.budget = budget
	ex.nodes = 0
	ex.pruned = 0
	ex.ctxCut = false
	ex.undo = ex.undo[:0]
	ex.table.reset(ii, ex.cfg)
	for i := range ex.placed {
		ex.placed[i] = false
	}
	ex.height = heightsInto(ex.height, ex.lat, ex.l.Deps, ii, ex.n)
	for i := range ex.order {
		ex.order[i] = int32(i)
	}
	sort.Slice(ex.order, func(a, b int) bool {
		x, y := ex.order[a], ex.order[b]
		if ex.height[x] != ex.height[y] {
			return ex.height[x] > ex.height[y]
		}
		return x < y
	})
	return ex.dfs(0)
}

// clusterMask returns the clusters y may still occupy: those providing its
// FU class, intersected with the ring-adjacency words of its placed flow
// neighbours. A zero mask is a proof that no completion places y.
func (ex *exactSearcher) clusterMask(y int) uint64 {
	t := &ex.deps
	mask := ex.classMask[ex.class[y]]
	for _, e := range t.in.At(y) {
		if p := t.from[e]; t.flow[e] && int(p) != y && ex.placed[p] {
			mask &= ex.adjMasks[ex.cluOf[p]]
		}
	}
	for _, e := range t.out.At(y) {
		if v := t.to[e]; t.flow[e] && int(v) != y && ex.placed[v] {
			mask &= ex.adjMasks[ex.cluOf[v]]
		}
	}
	return mask
}

// dfs places order[depth] in every viable (cluster, row) slot and recurses.
// exactInfeasible from a subtree means "keep trying siblings"; exactFound
// and exactAborted unwind immediately (exactFound leaves the placement
// intact for schedule).
func (ex *exactSearcher) dfs(depth int) exactStatus {
	if depth == ex.n {
		return exactFound
	}
	x := int(ex.order[depth])
	mask := ex.clusterMask(x)
	rows := ex.ii
	if depth == 0 {
		// Symmetry: any schedule rotates in time so its first-ordered op
		// sits in row 0, and on an all-identical-clusters ring it also
		// rotates around the ring onto cluster 0.
		rows = 1
		if ex.symmetric && mask&1 != 0 {
			mask = 1
		}
	}
	if mask == 0 {
		ex.pruned++
		return exactInfeasible
	}
	class := ex.class[x]
	for m := mask; m != 0; m &= m - 1 {
		c := bits.TrailingZeros64(m)
		for r := 0; r < rows; r++ {
			if !ex.table.free(r, c, class) {
				ex.pruned++
				continue
			}
			ex.nodes++
			if ex.nodes > ex.budget {
				return exactAborted
			}
			if ex.nodes&1023 == 0 && ex.ctx.Err() != nil {
				ex.ctxCut = true
				return exactAborted
			}
			ex.table.add(r, c, class, x)
			ex.placed[x] = true
			ex.rowOf[x] = int32(r)
			ex.cluOf[x] = int32(c)
			mark := len(ex.undo)
			ok := ex.propagate(x) && ex.lookahead(x)
			if ok {
				if st := ex.dfs(depth + 1); st != exactInfeasible {
					return st
				}
			} else {
				ex.pruned++
			}
			ex.unwind(mark)
			ex.placed[x] = false
			ex.table.remove(r, c, class, x)
		}
	}
	return exactInfeasible
}

// unwind restores every potential overwritten since the undo log held mark
// entries, newest first, so pot returns to its state at mark exactly.
func (ex *exactSearcher) unwind(mark int) {
	for len(ex.undo) > mark {
		u := ex.undo[len(ex.undo)-1]
		ex.undo = ex.undo[:len(ex.undo)-1]
		ex.pot[u.id] = u.pot
	}
}

// weight is the stage-difference coefficient of dependence e between
// placed endpoints: the schedule needs pot[to] - pot[from] >= weight(e),
// with weight = ceil((L + row[from] - row[to]) / II) - dist and L
// including the cross-cluster communication latency for flow dependences.
func (ex *exactSearcher) weight(e int32) int {
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

// propagate activates the constraints between x and the placed ops —
// writing each one's weight into ex.w — and restores the invariant
// pot[to] >= pot[from] + weight by queue-driven longest-path relaxation.
// It returns false when the placed subgraph acquires a positive-weight
// cycle — no stage assignment exists, so the placement is infeasible.
// Every potential overwrite lands in ex.undo; the caller unwinds to its
// mark on backtrack (including after a false return).
//
// Cycle detection: before x was placed the placed ops had no positive
// cycle and pot was their least solution, so any positive cycle now runs
// through x. Every raise made from x's starting potential is pot[x] plus
// the weight of a walk out of x, so a relaxation that would raise pot[x]
// itself has found a positive cycle (a self dependence of positive weight
// is the one-edge case); and if none ever would, the walk ends with every
// constraint satisfied, so there is none. The check is exact, and on
// success pot is the least solution again.
func (ex *exactSearcher) propagate(x int) bool {
	t := &ex.deps
	placed, pot, w, queued := ex.placed, ex.pot, ex.w, ex.queued
	ex.undo = append(ex.undo, potUndo{int32(x), pot[x]})
	px := 0
	for _, e := range t.in.At(x) {
		p := t.from[e]
		if !placed[p] {
			continue
		}
		w[e] = ex.weight(e)
		if int(p) != x {
			if nd := pot[p] + w[e]; nd > px {
				px = nd
			}
		}
	}
	pot[x] = px
	for _, e := range t.out.At(x) {
		if v := t.to[e]; placed[v] && int(v) != x {
			w[e] = ex.weight(e)
		}
	}
	q := append(ex.queue[:0], int32(x))
	queued[x] = true
	for head := 0; head < len(q); head++ {
		y := q[head]
		queued[y] = false
		py := pot[y]
		for _, e := range t.out.At(int(y)) {
			v := t.to[e]
			if !placed[v] {
				continue
			}
			nd := py + w[e]
			if nd <= pot[v] {
				continue
			}
			if int(v) == x {
				for _, u := range q[head+1:] {
					queued[u] = false
				}
				ex.queue = q[:0]
				return false
			}
			ex.undo = append(ex.undo, potUndo{v, pot[v]})
			pot[v] = nd
			if !queued[v] {
				queued[v] = true
				q = append(q, v)
			}
		}
	}
	ex.queue = q[:0]
	return true
}

// lookahead forward-checks x's unplaced flow neighbours after placing x:
// each must still have a cluster that is adjacent to all of its placed
// flow neighbours, provides its FU class, and has at least one non-full
// row. This is the occupancy lower bound of the search: a violation means
// no completion of the current partial placement exists.
func (ex *exactSearcher) lookahead(x int) bool {
	t := &ex.deps
	for _, e := range t.in.At(x) {
		if p := t.from[e]; t.flow[e] && int(p) != x && !ex.placed[p] && !ex.viable(int(p)) {
			return false
		}
	}
	for _, e := range t.out.At(x) {
		if v := t.to[e]; t.flow[e] && int(v) != x && !ex.placed[v] && !ex.viable(int(v)) {
			return false
		}
	}
	return true
}

// viable reports whether unplaced op y still has a candidate slot.
func (ex *exactSearcher) viable(y int) bool {
	mask := ex.clusterMask(y)
	if mask == 0 {
		return false
	}
	for m := mask; m != 0; m &= m - 1 {
		if ex.table.anyFree(bits.TrailingZeros64(m), ex.class[y]) {
			return true
		}
	}
	return false
}

// schedule materializes the found placement: per-op start cycles
// row + II*k with the stage counters k recovered from the propagation
// potentials, normalized so the earliest stage is zero.
func (ex *exactSearcher) schedule(cfg machine.Config, ii, resMII, recMII int) *Schedule {
	shift := ex.pot[0]
	for _, p := range ex.pot {
		if p < shift {
			shift = p
		}
	}
	time := make([]int, ex.n)
	cluster := make([]int, ex.n)
	for i := 0; i < ex.n; i++ {
		time[i] = int(ex.rowOf[i]) + ii*(ex.pot[i]-shift)
		cluster[i] = int(ex.cluOf[i])
	}
	return &Schedule{
		Loop:    ex.l,
		Machine: cfg,
		II:      ii,
		Time:    time,
		Cluster: cluster,
		ResMII:  resMII,
		RecMII:  recMII,
	}
}
