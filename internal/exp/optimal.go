package exp

import (
	"fmt"

	"vliwq/internal/copyins"
	"vliwq/internal/corpus"
	"vliwq/internal/machine"
	"vliwq/internal/sched"
)

// optimalMachines are the certified sweep's ring machines, and
// optimalBindings each of them at EffortExhaustive and then EffortOptimal:
// bindings 2i and 2i+1 are optimalMachines[i].
var (
	optimalMachines = []struct{ nc, cl int }{{4, 2}, {6, 2}}
	optimalBindings = func() (bs []binding) {
		for _, mc := range optimalMachines {
			for _, eff := range []sched.Effort{sched.EffortExhaustive, sched.EffortOptimal} {
				b := on(machine.Clustered(mc.nc), copyins.Tree)
				b.commLat, b.effort = mc.cl, eff
				bs = append(bs, b)
			}
		}
		return bs
	}()
)

// Optimal is the certified-optimality sweep: it takes the stressed preset
// (the partition-hostile population the portfolio sweep measures), compiles
// every loop at EffortExhaustive and EffortOptimal, and classifies each
// loop the heuristics left above MII — proved (the branch-and-bound search
// exhausted every smaller II, so the heuristic schedule was optimal all
// along), improved (the search found a strictly smaller II), or unproved
// (the per-II node budget cut the proof with the gap still open). Ring
// machines carry inter-cluster latency here because it is what creates the
// II gaps worth certifying: with zero-latency links and copy ops the
// stressed preset schedules at MII almost everywhere.
//
// This is the experiment DESIGN.md §14 points at: it turns the portfolio
// sweep's "mean gap to MII" column — a bound against a lower bound that
// might be unachievable — into a certified account of how much of that gap
// is real.
func Optimal(opts Options) *Table {
	t := &Table{
		ID:     "optimal",
		Title:  "Certified optimality: the heuristic II gap, proved or closed (stressed corpus)",
		Header: []string{"clusters", "commlat", "loops", "at MII", "gapped", "proved", "improved", "unproved", "pruned nodes"},
	}
	// Efforts are pinned per compile; the sweep-wide Options.Effort must
	// not leak in (same convention as the portfolio sweep).
	base := opts
	base.Effort = sched.EffortFast
	loops := opts.stressedLoops()
	type res struct {
		ok      bool
		ii, mii int
		optimal bool // Bound.Optimal
		pruned  int64
	}
	results := sweep(base, loops, optimalBindings, func(c compiled) res {
		return res{ok: c.Err == nil, ii: c.II, mii: c.MII, optimal: c.Bound.Optimal, pruned: c.PrunedNodes}
	})
	for i, mc := range optimalMachines {
		var ok, atMII, gapped, proved, improved, unproved int
		var pruned int64
		for _, r := range results {
			ex, opt := r[2*i], r[2*i+1]
			if !ex.ok || !opt.ok {
				continue
			}
			ok++
			pruned += opt.pruned
			if ex.ii <= ex.mii {
				atMII++
				continue
			}
			gapped++
			switch {
			case opt.ii < ex.ii:
				improved++
			case opt.optimal && opt.ii == ex.ii:
				proved++
			default:
				unproved++
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", mc.nc),
			fmt.Sprintf("%d", mc.cl),
			fmt.Sprintf("%d", ok),
			pct(atMII, ok),
			fmt.Sprintf("%d", gapped),
			fmt.Sprintf("%d", proved),
			fmt.Sprintf("%d", improved),
			fmt.Sprintf("%d", unproved),
			fmt.Sprintf("%d", pruned),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("stressed preset: %d loops, seed %d (wide fanout, dense cross-iteration flow)",
			len(loops), corpus.StressedSeed),
		"proved: every II below the heuristic's was exhausted — the heuristic schedule was optimal",
		"improved: the exact search found a schedule at a smaller II than every heuristic strategy",
		"unproved: the deterministic per-II node budget cut the proof with the gap still open",
	)
	return t
}
