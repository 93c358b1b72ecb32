package exp

import (
	"context"
	"fmt"

	"vliwq"
	"vliwq/internal/copyins"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
)

// invariantFUs are the machines the invariant ablation compiles on, and
// invariantBindings their bindings, in order.
var (
	invariantFUs      = []int{4, 6, 12}
	invariantBindings = func() (bs []binding) {
		for _, nfu := range invariantFUs {
			bs = append(bs, on(machine.SingleCluster(nfu), copyins.Tree))
		}
		return bs
	}()
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
	// The IIs of a loop and of its hoisted variant on each machine, -1
	// where a compile failed; a loop without invariants compiles nothing.
	type res struct {
		removed       int // invariant loads hoisted
		base, hoisted []int
	}
	pl := opts.plan(invariantBindings)
	ii := func(c compiled) int {
		if c.Err != nil {
			return -1
		}
		return c.II
	}
	results := forEach(loops, opts.workers(), func(l *ir.Loop) res {
		hoisted, removed := hoistInvariants(l)
		if removed == 0 {
			return res{}
		}
		r := res{removed: removed, base: make([]int, len(pl.keys)), hoisted: make([]int, len(pl.keys))}
		pl.each(l, func(j int, c compiled) { r.base[j] = ii(c) })
		// The hoisted variant is a fresh loop per call: its pointer could
		// never hit the memo again, so it compiles uncached, once under
		// every machine, still on the Pipeline's stage clock.
		for j, hr := range vliwq.CompileEach(context.Background(), hoisted, pl.opts) {
			r.hoisted[j] = ii(opts.Pipeline.outcome(hoisted, hr))
		}
		return r
	})
	for j, nfu := range invariantFUs {
		var ok, has, improves, removed int
		var ratio float64
		for _, r := range results {
			if r.removed == 0 {
				ok++
				continue
			}
			base, hoisted := r.base[j], r.hoisted[j]
			if base < 0 || hoisted < 0 {
				continue
			}
			ok++
			has++
			removed += r.removed
			ratio += float64(hoisted) / float64(base)
			if hoisted < base {
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
	var inputs ir.DepIndex
	l.IndexDeps(&inputs, ir.FlowDeps, false)
	candidate := make([]bool, len(l.Ops))
	for id, op := range l.Ops {
		if op.Kind == ir.KLoad && len(inputs.At(id)) == 0 {
			candidate[id] = true
		}
	}
	// A store must keep at least one operand (it has to store something).
	for id, op := range l.Ops {
		if op.Kind != ir.KStore {
			continue
		}
		es := inputs.At(id)
		all := len(es) > 0
		for _, e := range es {
			if !candidate[l.Deps[e].From] {
				all = false
			}
		}
		if all {
			candidate[l.Deps[es[0]].From] = false
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
