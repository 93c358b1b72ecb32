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
	"runtime"
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

// runAttempt schedules l at one II under one strategy on a private arena.
// ordinal is the 1-based position of ii on the candidate ladder; it seeds
// the budget multiplier so each strategy sees the same budget growth it
// would in the single-strategy search. memo carries the race-wide shared
// pristine-loop facts (CSR views, per-II heights); the attempt's private
// arena holds everything placement-dependent.
func runAttempt(l *ir.Loop, cfg machine.Config, budgetRatio int, strat Strategy, ii, ordinal int, memo *raceMemo) attempt {
	st := statePool.Get().(*state)
	defer statePool.Put(st)
	st.init(l, cfg, budgetRatio, strat, memo)
	st.ordinal = ordinal
	st.stats.Attempts = 1 // this call is exactly one (II, strategy) attempt
	if !st.tryII(ii) {
		return attempt{stats: st.stats}
	}
	a := attempt{ok: true, stats: st.stats, moves: st.stats.MovesInserted}
	a.loop = l
	if len(st.loop.Ops) != len(l.Ops) {
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

func (o Options) raceWorkers() int {
	if o.RaceWorkers > 0 {
		return o.RaceWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// schedulePortfolio walks the candidate-II ladder racing every strategy at
// each step. See the package comment above for the selection rule and its
// determinism argument.
func schedulePortfolio(st *state, l *ir.Loop, cfg machine.Config, opts Options, strats []Strategy, resMII, recMII, maxII int) (*Schedule, error) {
	mii := resMII
	if recMII > mii {
		mii = recMII
	}
	ratio := opts.budgetRatio()
	workers := opts.raceWorkers()
	st.iiBuf = candidateIIs(st.iiBuf, mii, maxII)
	iis := st.iiBuf
	// The memo is shared by every racing attempt and released only after
	// the last race round has completed (pool.Run is a barrier per round).
	memo := newRaceMemo(l, &cfg)
	defer memo.release()

	var total Stats
	results := make([]attempt, len(strats))
	for ord, ii := range iis {
		for i := range results {
			results[i] = attempt{}
		}
		atMII := ii == mii
		if workers == 1 {
			// A single worker runs the strategies in index order anyway, so
			// the race degenerates to a plain loop — same results, same
			// MII short-circuit, none of the pool's goroutine/channel cost.
			for i := range strats {
				results[i] = runAttempt(l, cfg, ratio, strats[i], ii, ord+1, memo)
				if atMII && results[i].ok {
					break
				}
			}
		} else {
			ctx, cancel := context.WithCancel(context.Background())
			// minWin tracks the lowest strategy index that has scheduled at
			// MII. Feeding is in index order, so by the time strategy i runs,
			// every index below i has at least started and will complete;
			// cancellation can only drop indices that cannot win.
			minWin := atomic.Int64{}
			minWin.Store(int64(len(strats)))
			pool.Run(ctx, len(strats), workers, func(i int) {
				if atMII && minWin.Load() < int64(i) {
					return // a strictly better winner already exists
				}
				results[i] = runAttempt(l, cfg, ratio, strats[i], ii, ord+1, memo)
				if atMII && results[i].ok {
					for {
						cur := minWin.Load()
						if int64(i) >= cur || minWin.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
					cancel()
				}
			}, nil)
			cancel()
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
		if win < 0 {
			continue
		}
		a := results[win]
		total.MovesInserted = a.moves
		total.StrategiesTried = len(strats)
		return &Schedule{
			Loop:     a.loop,
			Machine:  cfg,
			II:       ii,
			Time:     a.time,
			Cluster:  a.cluster,
			ResMII:   resMII,
			RecMII:   recMII,
			Strategy: strats[win],
			Stats:    total,
		}, nil
	}

	// No strategy scheduled anywhere on the ladder: fall back to the
	// compact cluster-subset search, which cannot fail on a valid loop.
	// Compact mode restricts placement to a mutually adjacent subset, so
	// the preference ordering is irrelevant and the result reports the
	// baseline strategy. The race has ended, so the caller's state arena
	// (and the memo, still valid) is reused for the fallback.
	st.init(l, cfg, ratio, StrategyBaseline, memo)
	// Seed the attempt counter to the ladder length so the compact
	// attempts run at the same (capped) budget multiplier they get in
	// scheduleSingle after its full ladder — otherwise the portfolio's
	// fallback would search with a smaller budget than the fast path and
	// could land a strictly worse II. Only the attempts the fallback
	// itself makes are added to the reported stats.
	st.stats.Attempts = len(iis)
	if ii := st.compactSchedule(mii, maxII); ii >= 0 {
		resLoop := l
		if len(st.loop.Ops) != len(l.Ops) {
			resLoop = st.loop.Clone()
		}
		total.Attempts += st.stats.Attempts - len(iis)
		total.Placements += st.stats.Placements
		total.Evictions += st.stats.Evictions
		total.MovesInserted = st.stats.MovesInserted
		total.StrategiesTried = len(strats)
		return &Schedule{
			Loop:     resLoop,
			Machine:  cfg,
			II:       ii,
			Time:     append([]int(nil), st.time...),
			Cluster:  append([]int(nil), st.cluster...),
			ResMII:   resMII,
			RecMII:   recMII,
			Strategy: StrategyBaseline,
			Stats:    total,
		}, nil
	}
	return nil, fmt.Errorf("%w: %q on %s (MII=%d, maxII=%d)", ErrNoSchedule, l.Name, cfg.Name, mii, maxII)
}
