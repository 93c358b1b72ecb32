package exp

import (
	"fmt"

	"vliwq/internal/copyins"
	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
	"vliwq/internal/sched"
)

// Portfolio is the portfolio-vs-baseline sweep: for the standard corpus
// and the stressed preset (corpus.Stressed — wide fanout, heavy
// cross-cluster pressure), it compiles every loop on clustered machines at
// EffortFast (the single baseline heuristic) and EffortExhaustive (the
// full strategy race) and reports the II-gap histogram — how far each
// schedule lands from its MII lower bound. The exhaustive rows also tally
// which strategy won, so the catalogue's diversity is visible, not
// assumed. Everything is deterministic: same corpora, same report,
// regardless of worker count.
//
// This is the repo's scenario-diversity experiment rather than a paper
// figure: the paper commits to one partition heuristic, and this table
// measures exactly what that commitment costs on partition-hostile loops.
func Portfolio(opts Options) *Table {
	t := &Table{
		ID:     "portfolio",
		Title:  "Portfolio scheduling: II gap to MII by effort (copy ops, partitioned)",
		Header: []string{"corpus", "clusters", "effort", "II=MII", "+1", "+2", ">+2", "mean gap", "failed"},
	}
	// Rows pin their effort explicitly, so the sweep-wide Options.Effort
	// must not leak into the fast rows through the compiler's injection.
	base := opts
	base.Effort = sched.EffortFast
	corpora := []struct {
		name  string
		loops []*ir.Loop
	}{
		{"standard", opts.loops()},
		{"stressed", opts.stressedLoops()},
	}
	type res struct {
		ok       bool
		gap      int
		strategy sched.Strategy
	}
	for _, co := range corpora {
		for _, nc := range []int{4, 6} {
			cfg := machine.Clustered(nc)
			for _, eff := range []sched.Effort{sched.EffortFast, sched.EffortExhaustive} {
				comp := base.compiler(binding{spec: cfg.Spec(), shape: copyins.Tree, effort: eff})
				results := forEach(co.loops, base.workers(), func(l *ir.Loop) res {
					c := comp(l)
					if c.Err != nil {
						return res{}
					}
					return res{ok: true, gap: c.II - c.MII, strategy: c.Strategy}
				})
				var ok, g0, g1, g2, gMore, gapSum, failed int
				wins := map[sched.Strategy]int{}
				for _, r := range results {
					if !r.ok {
						failed++
						continue
					}
					ok++
					gapSum += r.gap
					wins[r.strategy]++
					switch {
					case r.gap <= 0:
						g0++
					case r.gap == 1:
						g1++
					case r.gap == 2:
						g2++
					default:
						gMore++
					}
				}
				mean := "n/a"
				if ok > 0 {
					mean = fmt.Sprintf("%.3f", float64(gapSum)/float64(ok))
				}
				t.Rows = append(t.Rows, []string{
					co.name,
					fmt.Sprintf("%d", nc),
					eff.String(),
					pct(g0, ok),
					pct(g1, ok),
					pct(g2, ok),
					pct(gMore, ok),
					mean,
					fmt.Sprintf("%d", failed),
				})
				if eff == sched.EffortExhaustive {
					t.Notes = append(t.Notes, fmt.Sprintf(
						"%s/%d-cluster exhaustive wins: %s", co.name, nc, winsByStrategy(wins)))
				}
			}
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("stressed preset: %d loops, seed %d (wide fanout, dense cross-iteration flow)",
			len(corpora[1].loops), corpus.StressedSeed),
		"exhaustive races every strategy per candidate II and can only match or lower the II of the baseline heuristic")
	return t
}

// winsByStrategy renders a win tally in strategy-index order, so the note
// is deterministic.
func winsByStrategy(wins map[sched.Strategy]int) string {
	out := ""
	for s := sched.Strategy(0); s < sched.NumStrategies; s++ {
		if n := wins[s]; n > 0 {
			if out != "" {
				out += " "
			}
			out += fmt.Sprintf("%s=%d", s, n)
		}
	}
	if out == "" {
		return "none"
	}
	return out
}
