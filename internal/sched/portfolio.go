// Portfolio scheduling: race several cluster-assignment strategies per
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
//   - At II > MII every strategy completes and the best schedule is chosen
//     by fewest inserted move operations, then shortest schedule, then
//     lowest strategy index.
//   - At II == MII the race short-circuits: the lowest-indexed strategy to
//     schedule wins outright and strategies with higher indices are
//     abandoned. Every strategy below the winner always runs to
//     completion, so the winner is independent of timing, worker count and
//     interleaving — raced and sequential execution return the identical
//     schedule.
//
// Racing uses the repo-wide worker pool (internal/pool). Attempts are fed
// in strategy order; cancellation after an MII hit can therefore only skip
// strategies above the first winner, which is what makes the short-circuit
// deterministic.

package sched

import (
	"context"
	"fmt"
	"sync/atomic"

	"vliwq/internal/ir"
	"vliwq/internal/machine"
	"vliwq/internal/pool"
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
// memo carries the race-wide pristine-loop facts (CSR views, per-II
// heights); the attempt's arena holds everything placement-dependent.
func runAttempt(l *ir.Loop, cfg machine.Config, budgetRatio int, strat Strategy, ii, ordinal int, memo *raceMemo) attempt {
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
// the caller scans attempts in strategy order and keeps the incumbent.
func (a attempt) better(b attempt) bool {
	if a.moves != b.moves {
		return a.moves < b.moves
	}
	return a.length < b.length
}

// schedulePortfolio walks the candidate-II ladder racing every strategy at
// each step, then the compact fallback. Every effort tier runs it; the
// fast tier's ladder has one strategy. See the package comment above for
// the selection rule and its determinism argument. st is the caller's
// arena: it holds the machine, the round's results and, after the race,
// the compact fallback's attempts.
func schedulePortfolio(st *state, l *ir.Loop, cfg machine.Config, strats []Strategy, resMII, recMII int, lim limits) (*Schedule, error) {
	mii := resMII
	if recMII > mii {
		mii = recMII
	}
	st.cfg = cfg
	st.iiBuf = candidateIIs(st.iiBuf, mii, lim.maxII)
	iis := st.iiBuf
	// The memo is shared by every racing attempt and released only after
	// the last race round has completed (pool.Run is a barrier per round).
	memo := newRaceMemo(l, &st.cfg)
	defer memo.release()

	var total Stats
	if len(strats) > 1 {
		total.StrategiesTried = len(strats)
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
	results := uninit(st.results, len(strats)) // cleared per round
	st.results = results
	for ord, ii := range iis {
		clear(results)
		atMII := ii == mii
		if lim.workers == 1 || len(strats) == 1 {
			// A single worker runs the strategies in index order anyway, so
			// the race degenerates to a plain loop — same results, same
			// MII short-circuit, none of the pool's goroutine/channel cost.
			for i := range strats {
				results[i] = runAttempt(l, st.cfg, lim.budgetRatio, strats[i], ii, ord+1, memo)
				if atMII && results[i].ok {
					break
				}
			}
		} else {
			raceRound(st, l, strats, ii, ord+1, atMII, memo, lim)
		}

		win := -1
		for i := range results {
			total.Attempts += results[i].stats.Attempts
			total.Placements += results[i].stats.Placements
			total.Evictions += results[i].stats.Evictions
		}
		for i := range results {
			if !results[i].ok {
				continue
			}
			if atMII {
				// Lowest index wins outright: indices below i either ran
				// and failed (deterministically) or succeeded and already
				// claimed the race.
				win = i
				break
			}
			if win < 0 || results[i].better(results[win]) {
				win = i
			}
		}
		if win >= 0 {
			s := finish(ii, strats[win], results[win])
			clear(results) // drop the pooled arena's references
			return s, nil
		}
	}

	// No strategy scheduled anywhere on the ladder: fall back to the
	// compact cluster-subset search, which cannot fail on a valid loop.
	// Compact mode ranks clusters by index under every strategy, so the
	// result reports the baseline strategy. The race has ended, so the
	// caller's arena (and the memo, still valid) serves the fallback.
	st.init(l, cfg, lim.budgetRatio, StrategyBaseline, memo)
	// Seed the attempt counter to the ladder length so the compact
	// attempts continue the ladder's budget growth (the multiplier caps
	// at the fourth attempt). Only the attempts the fallback itself makes
	// are added to the reported stats.
	st.stats.Attempts = len(iis)
	if ii := st.compactSchedule(mii, lim.maxII); ii >= 0 {
		total.Attempts += st.stats.Attempts - len(iis)
		total.Placements += st.stats.Placements
		total.Evictions += st.stats.Evictions
		return finish(ii, StrategyBaseline, st.result(l)), nil
	}
	return nil, fmt.Errorf("%w: %q on %s (MII=%d, maxII=%d)", ErrNoSchedule, l.Name, cfg.Name, mii, lim.maxII)
}

// raceRound runs one rung of the ladder on the worker pool, writing each
// strategy's attempt into st.results.
func raceRound(st *state, l *ir.Loop, strats []Strategy, ii, ordinal int, atMII bool, memo *raceMemo, lim limits) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// minWin tracks the lowest strategy index that has scheduled at MII.
	// Feeding is in index order, so by the time strategy i runs, every
	// index below i has at least started and will complete; cancellation
	// can only drop indices that cannot win.
	minWin := atomic.Int64{}
	minWin.Store(int64(len(strats)))
	pool.Run(ctx, len(strats), lim.workers, func(i int) {
		if atMII && minWin.Load() < int64(i) {
			return // a strictly better winner already exists
		}
		st.results[i] = runAttempt(l, st.cfg, lim.budgetRatio, strats[i], ii, ordinal, memo)
		if atMII && st.results[i].ok {
			for {
				cur := minWin.Load()
				if int64(i) >= cur || minWin.CompareAndSwap(cur, int64(i)) {
					break
				}
			}
			cancel()
		}
	}, nil)
}
