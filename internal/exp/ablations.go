package exp

import (
	"fmt"

	"vliwq/internal/copyins"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
)

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
	cfg := machine.SingleCluster(6)
	type res struct {
		ok       bool
		iiT, iiC int
		scT, scC int
		qT, qC   int
	}
	compTree := opts.compiler(binding{spec: cfg.Spec(), shape: copyins.Tree})
	compChain := opts.compiler(binding{spec: cfg.Spec(), shape: copyins.Chain})
	results := forEach(loops, opts.workers(), func(l *ir.Loop) res {
		tr := compTree(l)
		ch := compChain(l)
		if tr.Err != nil || ch.Err != nil {
			return res{}
		}
		return res{
			ok:  true,
			iiT: tr.II, iiC: ch.II,
			scT: tr.StageCount, scC: ch.StageCount,
			qT: tr.Private, qC: ch.Private,
		}
	})
	var ok, winT, winC int
	var iiT, iiC, scT, scC, qT, qC float64
	for _, r := range results {
		if !r.ok {
			continue
		}
		ok++
		iiT += float64(r.iiT)
		iiC += float64(r.iiC)
		scT += float64(r.scT)
		scC += float64(r.scC)
		qT += float64(r.qT)
		qC += float64(r.qC)
		if r.iiT < r.iiC {
			winT++
		}
		if r.iiC < r.iiT {
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
	for _, nc := range machine.PaperClusterCounts {
		single := machine.SingleCluster(3 * nc)
		clustered := machine.Clustered(nc)
		type res struct {
			ok              bool
			sameOff, sameOn bool
			moves           int
		}
		compRef := opts.compiler(binding{spec: single.Spec(), unroll: true, shape: copyins.Tree})
		compOff := opts.compiler(binding{spec: clustered.Spec(), unroll: true, shape: copyins.Tree})
		compOn := opts.compiler(binding{spec: clustered.Spec(), moves: true, unroll: true, shape: copyins.Tree})
		results := forEach(loops, opts.workers(), func(l *ir.Loop) res {
			ref := compRef(l)
			off := compOff(l)
			on := compOn(l)
			if ref.Err != nil || off.Err != nil || on.Err != nil {
				return res{}
			}
			return res{
				ok:      true,
				sameOff: off.II <= ref.II,
				sameOn:  on.II <= ref.II,
				moves:   on.Moves,
			}
		})
		var ok, sameOff, sameOn, moves int
		for _, r := range results {
			if !r.ok {
				continue
			}
			ok++
			if r.sameOff {
				sameOff++
			}
			if r.sameOn {
				sameOn++
			}
			moves += r.moves
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
	type res struct {
		ok  bool
		iis [3]int
	}
	lats := []int{0, 1, 2}
	comps := make([]func(*ir.Loop) compiled, len(lats))
	cfg := machine.Clustered(4)
	for i, lat := range lats {
		comps[i] = opts.compiler(binding{spec: cfg.Spec(), commLat: lat, unroll: true, shape: copyins.Tree})
	}
	results := forEach(loops, opts.workers(), func(l *ir.Loop) res {
		var r res
		r.ok = true
		for i := range lats {
			c := comps[i](l)
			if c.Err != nil {
				return res{}
			}
			r.iis[i] = c.II
		}
		return r
	})
	for i, lat := range lats {
		var ok, same int
		var sum float64
		for _, r := range results {
			if !r.ok {
				continue
			}
			ok++
			if r.iis[i] <= r.iis[0] {
				same++
			}
			sum += float64(r.iis[i])
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
