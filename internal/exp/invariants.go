package exp

import (
	"fmt"

	"vliwq/internal/copyins"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
)

// AblationInvariants quantifies the paper's §5 work-in-progress item,
// "strategies to deal with loop invariants". The baseline model (like the
// paper's) re-loads loop-invariant scalars every iteration, because a queue
// read destroys the value; a hoisting scheme would keep invariants in
// dedicated storage and remove those loads from the loop body. This
// ablation compares the II of each loop against a hypothetically hoisted
// variant in which invariant-like leaf loads (no address operand, i.e. the
// same location every iteration) are deleted, bounding what a real
// recirculation or invariant-register scheme could gain.
//
// The comparison is scheduling-only: removing a load changes program
// semantics, so the hoisted variants are never simulated.
func AblationInvariants(opts Options) *Table {
	loops := opts.loops()
	t := &Table{
		ID:     "ablation-invariants",
		Title:  "Loop-invariant hoisting bound (leaf loads removed)",
		Header: []string{"machine", "loops w/ invariants", "II improves", "mean II ratio (hoisted/base)", "mean loads removed"},
	}
	for _, nfu := range []int{4, 6, 12} {
		cfg := machine.SingleCluster(nfu)
		type res struct {
			ok       bool
			has      bool
			improves bool
			ratio    float64
			removed  int
		}
		b := binding{spec: cfg.Spec(), shape: copyins.Tree}
		compBase := opts.compiler(b)
		_, hoistedOpts := opts.bind(b)
		results := forEach(loops, opts.workers(), func(l *ir.Loop) res {
			hoisted, removed := hoistInvariants(l)
			if removed == 0 {
				return res{ok: true}
			}
			base := compBase(l)
			// The hoisted variant is a fresh per-call loop: its pointer could
			// never hit the memo again, so it compiles uncached — still on
			// the Pipeline's stage clock.
			hc := opts.Pipeline.run(hoisted, hoistedOpts)
			if base.Err != nil || hc.Err != nil {
				return res{}
			}
			return res{
				ok:       true,
				has:      true,
				improves: hc.II < base.II,
				ratio:    float64(hc.II) / float64(base.II),
				removed:  removed,
			}
		})
		var ok, has, improves, removed int
		var ratio float64
		for _, r := range results {
			if !r.ok {
				continue
			}
			ok++
			if !r.has {
				continue
			}
			has++
			removed += r.removed
			ratio += r.ratio
			if r.improves {
				improves++
			}
		}
		row := []string{fmt.Sprintf("%d FUs", nfu), pct(has, ok)}
		if has > 0 {
			row = append(row,
				pct(improves, has),
				fmt.Sprintf("%.3f", ratio/float64(has)),
				fmt.Sprintf("%.1f", float64(removed)/float64(has)))
		} else {
			row = append(row, "n/a", "n/a", "n/a")
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"upper bound: deleting the loads assumes invariants live in dedicated storage with free reads",
		"gains concentrate on narrow machines where the L/S unit is the binding resource")
	return t
}

// hoistInvariants returns a copy of the loop with invariant-like leaf
// loads (loads without an address operand) removed, along with the number
// removed. Consumers simply lose that operand; loads whose removal would
// leave a store with no inputs are kept.
func hoistInvariants(l *ir.Loop) (*ir.Loop, int) {
	// Identify candidates on the original indices.
	inputs := make([]int, len(l.Ops))
	for _, d := range l.Deps {
		if d.Kind == ir.Flow {
			inputs[d.To]++
		}
	}
	candidate := make([]bool, len(l.Ops))
	for id, op := range l.Ops {
		if op.Kind == ir.KLoad && inputs[id] == 0 {
			candidate[id] = true
		}
	}
	// A store must keep at least one operand (it has to store something).
	for _, op := range l.Ops {
		if op.Kind != ir.KStore {
			continue
		}
		deps := l.FlowInputs(op)
		all := len(deps) > 0
		for _, d := range deps {
			if !candidate[d.From] {
				all = false
			}
		}
		if all {
			candidate[deps[0].From] = false
		}
	}
	removedCount := 0
	for id := range candidate {
		if candidate[id] {
			removedCount++
		}
	}
	if removedCount == 0 {
		return l, 0
	}
	// Rebuild without the candidates.
	out := &ir.Loop{Name: l.Name + ".hoisted", Trip: l.Trip, Unroll: l.Unroll}
	remap := make([]int, len(l.Ops))
	for id, op := range l.Ops {
		if candidate[id] {
			remap[id] = -1
			continue
		}
		c := out.AddOp(op.Kind, op.Name)
		c.Orig = op.Orig
		c.Phase = op.Phase
		remap[id] = c.ID
	}
	for _, d := range l.Deps {
		if remap[d.From] < 0 || remap[d.To] < 0 {
			continue
		}
		out.AddDep(ir.Dep{From: remap[d.From], To: remap[d.To], Dist: d.Dist, Kind: d.Kind})
	}
	if err := out.Validate(); err != nil {
		// Degenerate shapes (e.g. everything was an invariant) fall back
		// to the original loop.
		return l, 0
	}
	return out, removedCount
}
