package exp

import (
	"fmt"

	"vliwq/internal/copyins"
	"vliwq/internal/machine"
)

// copyShapeBindings are the two copy topologies on 6 FUs: the balanced
// tree (binding 0) and the chain (binding 1).
var copyShapeBindings = []binding{
	on(machine.SingleCluster(6), copyins.Tree),
	on(machine.SingleCluster(6), copyins.Chain),
}

// AblationCopyShape compares the two copy-tree topologies (DESIGN.md A1):
// balanced trees add O(log n) latency to fanned-out values, chains O(n).
// The paper uses the dedicated copy FU without specifying the shape; this
// ablation shows why the tree is the right default.
func AblationCopyShape(opts Options) *Table {
	loops := opts.loops()
	t := &Table{
		ID:     "ablation-copyshape",
		Title:  "Copy fanout shape: balanced tree vs chain (6 FUs)",
		Header: []string{"shape", "mean II", "mean stage count", "mean queues", "II wins vs other"},
	}
	type res struct {
		ok        bool
		ii, sc, q int
	}
	results := sweep(opts, loops, copyShapeBindings, func(c compiled) res {
		return res{ok: c.Err == nil, ii: c.II, sc: c.StageCount, q: c.Private}
	})
	var ok, winT, winC int
	var iiT, iiC, scT, scC, qT, qC float64
	for _, r := range results {
		tr, ch := r[0], r[1]
		if !tr.ok || !ch.ok {
			continue
		}
		ok++
		iiT += float64(tr.ii)
		iiC += float64(ch.ii)
		scT += float64(tr.sc)
		scC += float64(ch.sc)
		qT += float64(tr.q)
		qC += float64(ch.q)
		if tr.ii < ch.ii {
			winT++
		}
		if ch.ii < tr.ii {
			winC++
		}
	}
	f := func(v float64) string { return fmt.Sprintf("%.2f", v/float64(ok)) }
	t.Rows = append(t.Rows,
		[]string{"tree", f(iiT), f(scT), f(qT), pct(winT, ok)},
		[]string{"chain", f(iiC), f(scC), f(qC), pct(winC, ok)},
	)
	t.Notes = append(t.Notes, "tree never adds more than ceil(log2(fanout)) copy latencies to a path")
	return t
}

// moveBindings are the move-op ablation's machines: for n =
// machine.PaperClusterCounts[i], binding 3i is the reference
// SingleCluster(3n), and bindings 3i+1 and 3i+2 are Clustered(n) with
// moves off and on.
var moveBindings = func() (bs []binding) {
	for _, nc := range machine.PaperClusterCounts {
		on := unrolled(machine.Clustered(nc))
		on.moves = true
		bs = append(bs, unrolled(machine.SingleCluster(3*nc)), unrolled(machine.Clustered(nc)), on)
	}
	return bs
}()

// AblationMoveOps evaluates the paper's proposed future extension (§5):
// move operations carrying values between non-adjacent clusters. The paper
// conjectures this recovers the II lost at 5 and 6 clusters; the ablation
// measures exactly that.
func AblationMoveOps(opts Options) *Table {
	loops := opts.loops()
	t := &Table{
		ID:     "ablation-moves",
		Title:  "Move-op extension: same-II fraction vs single cluster",
		Header: []string{"clusters", "moves off", "moves on", "mean moves/loop (on)"},
	}
	type res struct {
		ok        bool
		ii, moves int
	}
	results := sweep(opts, loops, moveBindings, func(c compiled) res {
		return res{ok: c.Err == nil, ii: c.II, moves: c.Moves}
	})
	for i, nc := range machine.PaperClusterCounts {
		var ok, sameOff, sameOn, moves int
		for _, r := range results {
			ref, off, on := r[3*i], r[3*i+1], r[3*i+2]
			if !ref.ok || !off.ok || !on.ok {
				continue
			}
			ok++
			if off.ii <= ref.ii {
				sameOff++
			}
			if on.ii <= ref.ii {
				sameOn++
			}
			moves += on.moves
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", nc),
			pct(sameOff, ok),
			pct(sameOn, ok),
			fmt.Sprintf("%.2f", float64(moves)/float64(ok)),
		})
	}
	t.Notes = append(t.Notes,
		"paper §5: 'a more sophisticated scheme using move operations ... should make possible for a clustered machine to achieve performance figures similar to ... a single cluster machine'")
	return t
}

// commLats are the communication latencies the latency ablation sweeps.
var commLats = []int{0, 1, 2}

// commLatBindings are Clustered(4) at each of commLats, in order.
var commLatBindings = func() (bs []binding) {
	for _, lat := range commLats {
		b := unrolled(machine.Clustered(4))
		b.commLat = lat
		bs = append(bs, b)
	}
	return bs
}()

// AblationCommLatency measures sensitivity to inter-cluster communication
// latency (the paper's ring writes into the neighbour's queue directly;
// real implementations may need a cycle or two).
func AblationCommLatency(opts Options) *Table {
	loops := opts.loops()
	t := &Table{
		ID:     "ablation-commlat",
		Title:  "Inter-cluster communication latency sensitivity (4 clusters)",
		Header: []string{"comm latency", "same II as lat 0", "mean II"},
	}
	// The II of each compile, or -1 where it failed; a loop counts only
	// where it compiled at every latency.
	iis := sweep(opts, loops, commLatBindings, func(c compiled) int {
		if c.Err != nil {
			return -1
		}
		return c.II
	})
	allOK := func(r []int) bool {
		for _, ii := range r {
			if ii < 0 {
				return false
			}
		}
		return true
	}
	for i, lat := range commLats {
		var ok, same int
		var sum float64
		for _, r := range iis {
			if !allOK(r) {
				continue
			}
			ok++
			if r[i] <= r[0] {
				same++
			}
			sum += float64(r[i])
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d cycles", lat),
			pct(same, ok),
			fmt.Sprintf("%.2f", sum/float64(ok)),
		})
	}
	t.Notes = append(t.Notes,
		"latency tolerance comes from software pipelining: communication latency folds into lifetimes, not into the II, unless a recurrence crosses clusters")
	return t
}
