package sched

import (
	"fmt"
	"sort"
	"strings"
)

// Strategy identifies one cluster-assignment heuristic. The partitioned
// scheduler's slot search walks clusters in a preference order; a strategy
// is exactly that ordering policy. No single ordering wins across loop
// shapes — communication-bound loops want affinity, throughput-bound loops
// want balance — which is why the portfolio scheduler (portfolio.go) tries
// several per candidate II. Strategy values are dense small integers: the
// value doubles as the deterministic tie-break index of a portfolio.
type Strategy uint8

const (
	// StrategyBaseline is the heuristic the scheduler has always used:
	// clusters holding more already-scheduled flow neighbours first, then
	// lighter reservation-table load, then cluster index.
	StrategyBaseline Strategy = iota
	// StrategyLoadBalanced inverts the baseline's priorities: lightest
	// reservation-table load first, affinity second. It wins on wide,
	// communication-light loops where the baseline piles work onto the
	// cluster of the first scheduled operations.
	StrategyLoadBalanced
	// StrategyAffinity is the min-copy ordering: clusters minimizing the
	// total ring distance to already-scheduled flow neighbours first (zero
	// distance = same cluster = no communication at all), affinity count
	// second. It keeps dependence chains together harder than the baseline,
	// which only counts same-cluster neighbours.
	StrategyAffinity
	// StrategyRoundRobin assigns each operation a home cluster by operation
	// index modulo the cluster count and prefers clusters near that home.
	// It ignores dependences entirely — a deliberately contrarian spreader
	// that escapes the clumping failure modes of the affinity family.
	StrategyRoundRobin
	// StrategyPerturb is the baseline with a deterministic, seeded jitter
	// on the load tie-break and a hashed final tie-break. It explores a
	// different corner of the same basin, which is frequently enough to
	// dodge an eviction cycle the unperturbed baseline cannot leave.
	StrategyPerturb
	// NumStrategies is the number of strategies (sentinel, not a strategy).
	NumStrategies
)

var strategyNames = [NumStrategies]string{
	StrategyBaseline:     "baseline",
	StrategyLoadBalanced: "load-balanced",
	StrategyAffinity:     "affinity",
	StrategyRoundRobin:   "round-robin",
	StrategyPerturb:      "perturb",
}

func (s Strategy) String() string {
	if s < NumStrategies {
		return strategyNames[s]
	}
	return fmt.Sprintf("Strategy(%d)", uint8(s))
}

// clusterPref orders one cluster candidate by a strategy-specific key
// vector: smaller k1 first, then k2, then k3, then cluster index. Every
// strategy is expressed as a key assignment, so one insertion sort serves
// the whole catalogue; the relation stays total (the index breaks every
// tie), so the result is the unique sorted order. Both the packed
// prefKey (ims.go) and the scalar reference (ref_test.go) rank with these
// keys, which is what makes their orders identical by construction.
type clusterPref struct{ c, k1, k2, k3 int }

func (p clusterPref) before(q clusterPref) bool {
	if p.k1 != q.k1 {
		return p.k1 < q.k1
	}
	if p.k2 != q.k2 {
		return p.k2 < q.k2
	}
	if p.k3 != q.k3 {
		return p.k3 < q.k3
	}
	return p.c < q.c
}

// prefHash is StrategyPerturb's deterministic jitter source: a splitmix64
// finalizer over the (op, cluster) pair under a fixed salt. Same op, same
// cluster, same verdict — across runs, platforms and worker interleavings.
func prefHash(id, c int) uint64 {
	h := uint64(id)*0x9e3779b97f4a7c15 ^ uint64(c)*0xbf58476d1ce4e5b9 ^ 0x5eed1998
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Effort selects how much scheduling work a compilation may spend: it
// decides the strategy portfolio tried per candidate II. The zero value is
// EffortFast — the single baseline heuristic, bit-for-bit the scheduler's
// historical behaviour — so existing callers, golden files and cache keys
// are untouched by the portfolio machinery.
type Effort uint8

const (
	// EffortFast runs the baseline strategy only.
	EffortFast Effort = iota
	// EffortBalanced tries the three affinity/load heuristics.
	EffortBalanced
	// EffortExhaustive tries every strategy in the catalogue.
	EffortExhaustive
	// EffortOptimal runs the exhaustive portfolio for an incumbent, then the
	// exact branch-and-bound searcher (exact.go) to certify or improve it.
	// The result carries an optimality certificate in Schedule.Bound; see
	// DESIGN.md §14 for the anytime/cancellation contract.
	EffortOptimal
	numEfforts
)

var effortNames = [numEfforts]string{
	EffortFast:       "fast",
	EffortBalanced:   "balanced",
	EffortExhaustive: "exhaustive",
	EffortOptimal:    "optimal",
}

func (e Effort) String() string {
	if e < numEfforts {
		return effortNames[e]
	}
	return fmt.Sprintf("Effort(%d)", uint8(e))
}

// ParseEffort maps an effort name to its value; the empty string is
// EffortFast, so an omitted knob (JSON field, flag default) selects the
// historical behaviour. The error lists the valid names sorted.
func ParseEffort(name string) (Effort, error) {
	if name == "" {
		return EffortFast, nil
	}
	for e, n := range effortNames {
		if n == name {
			return Effort(e), nil
		}
	}
	return 0, fmt.Errorf("unknown effort %q (valid: %s)", name, strings.Join(EffortNames(), ", "))
}

// EffortNames returns every effort name, sorted.
func EffortNames() []string {
	out := make([]string, 0, numEfforts)
	out = append(out, effortNames[:]...)
	sort.Strings(out)
	return out
}

// Strategies returns the strategy portfolio an effort level tries, in
// tie-break order. The slice is freshly allocated; callers may keep it.
func (e Effort) Strategies() []Strategy {
	switch e {
	case EffortBalanced:
		return []Strategy{StrategyBaseline, StrategyLoadBalanced, StrategyAffinity}
	case EffortExhaustive, EffortOptimal:
		// The optimal tier's heuristic incumbent comes from the same full
		// catalogue the exhaustive tier tries; the exact search then
		// certifies or improves it.
		return []Strategy{StrategyBaseline, StrategyLoadBalanced, StrategyAffinity, StrategyRoundRobin, StrategyPerturb}
	}
	return []Strategy{StrategyBaseline}
}
