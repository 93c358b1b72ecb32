// Certified optimality: the Bound contract and the Effort: optimal ladder.
//
// The heuristic tiers (fast/balanced/exhaustive) stop at the first II any
// strategy schedules, which proves nothing about the IIs below it. The
// optimal tier closes that hole: it first runs the exhaustive portfolio for
// an incumbent, then walks every integer II from MII up to the incumbent
// and asks the exact branch-and-bound searcher (exact.go) the decision
// question "does any partitioned modulo schedule exist at this II?". Each
// exhausted search raises the proved lower bound by one; the first feasible
// II replaces the incumbent and closes the gap. The result carries the
// certificate as Schedule.Bound (DESIGN.md §14).
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
	// the exact search exhausts without finding a schedule; it never
	// exceeds the achieved II.
	Lower int
	// Optimal reports that the search proved II == Lower: every smaller II
	// was exhausted, so no schedule with a smaller initiation interval
	// exists. False means the proof was cut (budget or deadline) with the
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
// runs), then certifies or improves it with the exact searcher, walking
// every integer II in [MII, incumbent II). Note the ladder deliberately
// does not use candidateIIs: a proof of optimality needs every integer
// rung, while the heuristic ladder is allowed to skip.
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
	ex := newExactSearcher(l, &cfg)
	budget := exactNodeBudget(lim.budgetRatio)
	for ii := mii; ii < s.II; ii++ {
		if ctx.Err() != nil {
			s.Bound.DeadlineCut = true
			return s, nil
		}
		res := ex.search(ctx, ii, budget)
		s.Stats.PrunedNodes += ex.pruned
		switch res {
		case exactFound:
			opt := ex.schedule(cfg, ii, resMII, recMII)
			// The incumbent's strategy and accumulated work carry over:
			// the exact schedule supersedes the portfolio's result, and
			// every smaller II was exhausted first, so ii is proved
			// optimal.
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
	// Every II below the incumbent is exhausted: the heuristic schedule
	// was optimal all along.
	s.Bound.Optimal = true
	return s, nil
}
