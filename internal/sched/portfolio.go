// Portfolio scheduling: try several cluster-assignment strategies per
// candidate II and keep the best schedule.
//
// The paper's partitioned IMS commits to one cluster-preference heuristic,
// and its Fig. 6 degradation is exactly the cost of that commitment: when
// the heuristic's first placements settle on mutually distant clusters, the
// budget burns down in eviction cycles and the II inflates. No single
// ordering wins across loop shapes, so the portfolio runs a catalogue of
// orderings (strategy.go) against every candidate II and returns the best
// result under a fully deterministic selection rule:
//
//   - The first candidate II at which any strategy schedules wins (the II
//     ladder is walked from MII upward, so this is the lowest achievable II
//     over the portfolio).
//   - At II > MII every strategy runs and the best schedule is chosen by
//     fewest inserted move operations, then shortest schedule, then lowest
//     strategy index.
//   - At II == MII the first strategy to schedule wins outright and the
//     strategies after it are not tried.
//
// The strategies of a rung run one after another, in index order, on the
// calling goroutine. A compile's schedule and its work (Stats) are
// therefore a function of the loop and the machine alone; parallelism
// lives one level up, across compiles (the service's requests, /batch
// items, Compiler.RunBatch and the experiment sweeps).

package sched

import (
	"fmt"

	"vliwq/internal/ir"
	"vliwq/internal/machine"
)

// attempt is the outcome of one (strategy, II) scheduling try.
type attempt struct {
	ok      bool
	time    []int
	cluster []int
	loop    *ir.Loop // input loop, or a clone when moves were inserted
	stats   Stats
	moves   int // move operations inserted
	length  int // single-iteration span, the last tie-break metric
}

// runAttempt schedules l at one II under one strategy on a pooled arena.
// ordinal is the 1-based position of ii on the candidate ladder; it seeds
// the budget multiplier, so every strategy sees the same budget growth.
// memo carries the pristine-loop facts every attempt of the compile shares
// (CSR views, per-II heights); the attempt's arena holds everything
// placement-dependent.
func runAttempt(l *ir.Loop, cfg machine.Config, budgetRatio int, strat Strategy, ii, ordinal int, memo *loopMemo) attempt {
	st := statePool.Get().(*state)
	defer statePool.Put(st)
	st.init(l, cfg, budgetRatio, strat, memo)
	st.ordinal = ordinal
	st.stats.Attempts = 1 // this call is exactly one (II, strategy) attempt
	if !st.tryII(ii) {
		return attempt{stats: st.stats}
	}
	return st.result(l)
}

// result copies a successful attempt out of the arena, which goes back to
// the pool. When no move operations were inserted the working loop is
// identical to the input and the input is kept (downstream passes treat
// Schedule.Loop as read-only); otherwise the grown working copy is cloned.
func (st *state) result(l *ir.Loop) attempt {
	a := attempt{ok: true, stats: st.stats, loop: l, moves: len(st.loop.Ops) - len(l.Ops)}
	if a.moves > 0 {
		a.loop = st.loop.Clone()
	}
	a.time = append([]int(nil), st.time...)
	a.cluster = append([]int(nil), st.cluster...)
	for id, op := range a.loop.Ops {
		if end := a.time[id] + op.Kind.Latency(); end > a.length {
			a.length = end
		}
	}
	return a
}

// better reports whether a beats b under the II-equal comparison: fewer
// inserted moves, then shorter schedule. Index order breaks ties because
// the caller tries strategies in index order and keeps the incumbent.
func (a attempt) better(b attempt) bool {
	if a.moves != b.moves {
		return a.moves < b.moves
	}
	return a.length < b.length
}

// schedulePortfolio walks the candidate-II ladder trying every strategy at
// each rung, then the compact fallback. Every effort tier runs it; the
// fast tier's ladder has one strategy. See the package comment above for
// the selection rule. st is the caller's arena: it holds the machine and
// the II ladder and, once the ladder has failed, the compact fallback's
// attempts.
func schedulePortfolio(st *state, l *ir.Loop, cfg machine.Config, strats []Strategy, resMII, recMII int, lim limits) (*Schedule, error) {
	mii := max(resMII, recMII)
	st.cfg = cfg
	st.iiBuf = candidateIIs(st.iiBuf, mii, lim.maxII)
	iis := st.iiBuf
	memo := newLoopMemo(l, &st.cfg)
	defer memo.release()

	var total Stats
	if len(strats) > 1 {
		total.StrategiesTried = len(strats)
	}
	add := func(s Stats) {
		total.Attempts += s.Attempts
		total.Placements += s.Placements
		total.Evictions += s.Evictions
	}
	finish := func(ii int, strat Strategy, a attempt) *Schedule {
		total.MovesInserted = a.moves
		return &Schedule{
			Loop:     a.loop,
			Machine:  cfg,
			II:       ii,
			Time:     a.time,
			Cluster:  a.cluster,
			ResMII:   resMII,
			RecMII:   recMII,
			Strategy: strat,
			Stats:    total,
		}
	}
	for ord, ii := range iis {
		var best attempt
		win := -1
		for i, strat := range strats {
			a := runAttempt(l, st.cfg, lim.budgetRatio, strat, ii, ord+1, memo)
			add(a.stats)
			if !a.ok {
				continue
			}
			if win < 0 || a.better(best) {
				best, win = a, i
			}
			if ii == mii {
				break // the first strategy to schedule at MII wins
			}
		}
		if win >= 0 {
			return finish(ii, strats[win], best), nil
		}
	}

	// No strategy scheduled anywhere on the ladder: fall back to the
	// compact cluster-subset search, which cannot fail on a valid loop.
	// Compact mode ranks clusters by index under every strategy, so the
	// result reports the baseline strategy. The caller's arena (and the
	// memo, still valid) serves the fallback.
	st.init(l, cfg, lim.budgetRatio, StrategyBaseline, memo)
	// Seed the attempt counter to the ladder length so the compact
	// attempts continue the ladder's budget growth (the multiplier caps
	// at the fourth attempt). Only the attempts the fallback itself makes
	// are added to the reported stats.
	st.stats.Attempts = len(iis)
	if ii := st.compactSchedule(mii, lim.maxII); ii >= 0 {
		st.stats.Attempts -= len(iis)
		add(st.stats)
		return finish(ii, StrategyBaseline, st.result(l)), nil
	}
	return nil, fmt.Errorf("%w: %q on %s (MII=%d, maxII=%d)", ErrNoSchedule, l.Name, cfg.Name, mii, lim.maxII)
}
