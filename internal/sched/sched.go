// Package sched implements Rau's Iterative Modulo Scheduling (IMS) and the
// paper's partitioned variant for clustered VLIW machines.
//
// The single-cluster scheduler is the classic algorithm: compute the minimum
// initiation interval MII = max(ResMII, RecMII), then for each candidate II
// try to place all operations with a budgeted, height-priority-driven
// iterative search that may evict (unschedule) conflicting operations.
//
// The partitioned scheduler extends slot search with a cluster dimension and
// the paper's communication rule: a value may only flow between operations
// on the same or ring-adjacent clusters. When no adjacent placement exists,
// conflicting neighbours are evicted and rescheduled (the paper's
// "backtracking"); if the budget runs out the II is increased — exactly the
// degradation Fig. 6 measures. With Config.AllowMoves the paper's proposed
// future extension is enabled: chains of move operations on COPY units carry
// values between non-adjacent clusters instead of forcing an eviction.
package sched

import (
	"context"
	"errors"
	"fmt"

	"vliwq/internal/ir"
	"vliwq/internal/machine"
)

// Schedule is a modulo schedule: an initiation interval plus, for every
// operation, a start cycle and a cluster assignment.
//
// When the scheduler inserts move operations (AllowMoves) the Loop field
// points at the transformed copy of the input loop; downstream passes
// (queue allocation, simulation) must use it rather than the original.
type Schedule struct {
	Loop    *ir.Loop
	Machine machine.Config
	II      int
	Time    []int // start cycle per op ID (>= 0)
	Cluster []int // cluster per op ID

	// Lower bounds computed before scheduling.
	ResMII int
	RecMII int

	// Strategy is the cluster-assignment strategy the schedule was
	// produced under: StrategyBaseline unless a portfolio tried
	// alternatives. A schedule from the compact fallback reports baseline,
	// because the fallback ranks clusters by index under every strategy.
	Strategy Strategy

	// Bound is the optimality certificate of the schedule. Only
	// EffortOptimal sets it (Lower >= 1); for every other tier
	// it stays the zero value, keeping historical outputs byte-identical.
	// See bound.go for the contract.
	Bound Bound

	Stats Stats
}

// MII returns max(ResMII, RecMII), the lower bound on the achieved II.
func (s *Schedule) MII() int {
	if s.ResMII > s.RecMII {
		return s.ResMII
	}
	return s.RecMII
}

// Length returns the number of cycles from the start of the first operation
// to the completion of the last, for a single iteration.
func (s *Schedule) Length() int {
	max := 0
	for id, op := range s.Loop.Ops {
		if end := s.Time[id] + op.Kind.Latency(); end > max {
			max = end
		}
	}
	return max
}

// StageCount returns the number of kernel stages: the number of iterations
// simultaneously in flight at full pipeline (paper §2).
func (s *Schedule) StageCount() int {
	maxStart := 0
	for _, t := range s.Time {
		if t > maxStart {
			maxStart = t
		}
	}
	return maxStart/s.II + 1
}

// Stats records how hard the scheduler had to work.
type Stats struct {
	Attempts      int // number of (II, strategy) attempts tried
	Placements    int // total operation placements across attempts
	Evictions     int // operations unscheduled to resolve conflicts
	MovesInserted int // move operations added (AllowMoves only)

	// StrategiesTried is the portfolio width: the number of strategies
	// tried per candidate II for this schedule. Zero means no portfolio ran (the fast
	// single-strategy path), which is how downstream reporting knows not
	// to print portfolio detail for historical outputs.
	StrategiesTried int

	// PrunedNodes is the number of candidate placements the exact search
	// rejected by a pruning rule (Effort: optimal only; zero elsewhere).
	// The service aggregates it fleet-wide as optimal.pruned_nodes.
	PrunedNodes int64
}

// DefaultBudgetRatio is Rau's recommended scheduling budget multiplier:
// an II attempt may make DefaultBudgetRatio placements per operation.
const DefaultBudgetRatio = 6

// limits bound one scheduling call. ScheduleLoop derives them; the
// tests that pin ErrNoSchedule and budget cuts pass their own to
// scheduleLoop.
type limits struct {
	maxII       int // top of the candidate-II ladder
	budgetRatio int // placements per op and II attempt (Rau's budget)
}

// iiCap is the top of the candidate-II ladder: far enough above MII that a
// near-sequential schedule always exists. For a valid loop RecMII is at
// most the summed latency (every circuit has distance >= 1) and ResMII at
// most the op count, so the cap is always at least MII + 8.
func iiCap(l *ir.Loop) int {
	return l.SumLatency() + len(l.Ops) + 8
}

// candidateIIs enumerates the IIs to attempt: every value near MII (where
// the interesting results live), then geometrically growing steps, and
// finally maxII itself, where a near-sequential schedule always exists.
// This keeps pathological partitioning cases from burning thousands of
// attempts while preserving Rau's II-minimality behaviour in practice.
// The sequence is appended into buf (reset to length zero) so repeated
// scheduling runs can reuse one buffer.
func candidateIIs(buf []int, mii, maxII int) []int {
	out := buf[:0]
	ii := mii
	for ii <= maxII {
		out = append(out, ii)
		if len(out) < 8 {
			ii++
		} else {
			ii += ii/4 + 1
		}
	}
	if len(out) == 0 || out[len(out)-1] != maxII {
		out = append(out, maxII)
	}
	return out
}

// Errors returned by the scheduler.
var (
	// ErrNoFU indicates the machine lacks a functional unit class that the
	// loop needs (e.g. a copy operation on a machine without COPY units).
	ErrNoFU = errors.New("sched: loop needs an FU class the machine does not have")
	// ErrNoSchedule indicates no schedule was found up to the II cap.
	ErrNoSchedule = errors.New("sched: no schedule found within II and budget limits")
)

// strategySet resolves the strategies a compilation tries: the effort
// level's portfolio. Single-cluster machines always collapse to the
// baseline — every ordering of one cluster is the same ordering.
func strategySet(effort Effort, numClusters int) []Strategy {
	if numClusters <= 1 {
		return []Strategy{StrategyBaseline}
	}
	return effort.Strategies()
}

// ScheduleLoop modulo-schedules the loop on the given machine. It works for
// both single-cluster and clustered configurations; for the latter it runs
// the paper's partitioned IMS — as a single heuristic at EffortFast, or as
// a strategy portfolio tried per candidate II at the higher effort levels.
//
// Only the optimal tier's proof search observes the context: a deadline or
// cancellation cuts the exact branch-and-bound ladder, which then returns
// the best incumbent with Bound.Optimal=false and Bound.DeadlineCut=true
// (the anytime contract, DESIGN.md §14). Every other effort level ignores
// ctx, so the heuristic tiers stay deterministic under any deadline.
//
// The loop must be valid (ir.(*Loop).Validate): the compile engine checks
// it once at its entry, and every pass before the scheduler preserves
// validity. The machine is checked here.
func ScheduleLoop(ctx context.Context, l *ir.Loop, cfg machine.Config, effort Effort) (*Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return scheduleLoop(ctx, l, cfg, effort, limits{maxII: iiCap(l), budgetRatio: DefaultBudgetRatio})
}

// scheduleLoop computes the lower bounds and runs the strategy portfolio of
// the effort tier (a one-strategy ladder at EffortFast), then, at
// EffortOptimal, the exact search that certifies or improves the
// portfolio's schedule.
func scheduleLoop(ctx context.Context, l *ir.Loop, cfg machine.Config, effort Effort, lim limits) (*Schedule, error) {
	resMII, err := ResMII(l, cfg)
	if err != nil {
		return nil, err
	}
	// The driver's state is acquired before the lower bounds so RecMII
	// runs out of its arena (recScratch) instead of allocating; the
	// portfolio then keeps its II ladder there and reuses it for the
	// compact fallback.
	st := statePool.Get().(*state)
	defer statePool.Put(st)
	recMII := recMIIInto(l, &st.rec)
	strats := strategySet(effort, cfg.NumClusters())
	if effort == EffortOptimal {
		return scheduleOptimal(ctx, st, l, cfg, strats, resMII, recMII, lim)
	}
	return schedulePortfolio(st, l, cfg, strats, resMII, recMII, lim)
}

// compactSchedule runs the compact fallbacks, for the rare loops whose
// communication structure defeats the free partitioner at every candidate
// II (typically an operation whose neighbours settle on mutually distant
// clusters and evict each other until the budget runs out). Restricting
// placement to a mutually adjacent cluster subset makes the ring rule
// vacuous at the price of fewer FUs: first an adjacent pair, then one
// cluster — at maxII the single-cluster attempt cannot fail, so every
// valid loop schedules on every valid machine. The II cost shows up
// honestly in the experiment statistics. It returns the achieved II, or -1
// on a single-cluster machine (where no fallback exists).
func (st *state) compactSchedule(mii, maxII int) int {
	if st.cfg.NumClusters() <= 1 {
		return -1
	}
	// The subsets as cluster masks: {0, 1}, then {0}.
	for _, allowed := range [...]uint64{0b11, 0b1} {
		sub, err := resMIISubset(st.orig, st.cfg, allowed)
		if err != nil {
			continue
		}
		if sub < mii {
			sub = mii
		}
		st.iiBuf = candidateIIs(st.iiBuf, sub, maxII)
		for _, ii := range st.iiBuf {
			st.stats.Attempts++
			st.ordinal = st.stats.Attempts
			st.allowed = allowed
			if st.tryII(ii) {
				return ii
			}
			st.reset()
		}
	}
	return -1
}

// Verify checks that the schedule satisfies every dependence, every
// resource constraint and the cluster communication rule. It is used by
// tests and by cmd tools; a correct scheduler never produces a schedule
// that fails Verify.
func (s *Schedule) Verify() error {
	l := s.Loop
	if len(s.Time) != len(l.Ops) || len(s.Cluster) != len(l.Ops) {
		return fmt.Errorf("sched: schedule arrays do not match loop size")
	}
	for id, op := range l.Ops {
		if s.Time[id] < 0 {
			return fmt.Errorf("sched: %v is unscheduled", op)
		}
		if c := s.Cluster[id]; c < 0 || c >= s.Machine.NumClusters() {
			return fmt.Errorf("sched: %v has invalid cluster %d", op, c)
		}
	}
	// Dependences: S(to) + II*dist >= S(from) + latency(from) (+ comm).
	for _, d := range l.Deps {
		lat := l.Ops[d.From].Kind.Latency()
		if d.Kind == ir.Flow {
			lat += s.commLat(d)
		}
		slack := s.Time[d.To] + s.II*d.Dist - (s.Time[d.From] + lat)
		if slack < 0 {
			return fmt.Errorf("sched: dependence violated: %v (slack %d)", d, slack)
		}
	}
	// Resources: at most FUs[class] issues per (cluster, class, row),
	// counted in a flat [row][cluster][class] table in op-ID order. The
	// table lives in a pooled scheduling state, as RecMII's scratch does.
	clusters, classes := s.Machine.NumClusters(), int(machine.NumClasses)
	st := statePool.Get().(*state)
	defer statePool.Put(st)
	used := refill(st.fuTable, s.II*clusters*classes, 0)
	st.fuTable = used
	for id, op := range l.Ops {
		row, c, class := s.Time[id]%s.II, s.Cluster[id], machine.ClassOf(op.Kind)
		k := (row*clusters+c)*classes + int(class)
		used[k]++
		if int(used[k]) > s.Machine.FUCount(c, class) {
			return fmt.Errorf("sched: row %d cluster %d oversubscribes %v", row, c, class)
		}
	}
	// Communication: flow dependences only between adjacent clusters.
	for _, d := range l.Deps {
		if d.Kind != ir.Flow {
			continue
		}
		if !s.Machine.Adjacent(s.Cluster[d.From], s.Cluster[d.To]) {
			return fmt.Errorf("sched: flow dep %v spans non-adjacent clusters %d and %d",
				d, s.Cluster[d.From], s.Cluster[d.To])
		}
	}
	return nil
}

// commLat returns the extra communication latency of a flow dependence.
func (s *Schedule) commLat(d ir.Dep) int {
	if s.Cluster[d.From] != s.Cluster[d.To] {
		return s.Machine.CommLatency
	}
	return 0
}
