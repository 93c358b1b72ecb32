// Package queue models the paper's queue register files (QRF): lifetimes of
// modulo-scheduled values, the Q-Compatibility test (Theorem 1.1) deciding
// when two lifetimes may share one FIFO queue, and a greedy first-fit
// allocator that maps every flow dependence of a schedule to a queue in the
// producing/consuming cluster's private QRF or in a ring communication
// queue.
package queue

import (
	"fmt"
	"slices"

	"vliwq/internal/ir"
	"vliwq/internal/sched"
)

// Lifetime is the interval a value occupies a queue: from the cycle its
// producer writes it (issue + latency, plus communication latency when it
// crosses clusters) to the cycle its consumer reads it (consumer issue time,
// plus II*distance for loop-carried dependences). Each flow dependence is
// one lifetime, because reading a queue destroys the value.
type Lifetime struct {
	Dep      ir.Dep // the flow dependence this lifetime carries
	DepIndex int    // index of Dep in Loop.Deps (distinguishes duplicates)
	Start    int    // write cycle
	End      int    // read cycle (End >= Start)
}

// Len returns the lifetime length in cycles.
func (lt Lifetime) Len() int { return lt.End - lt.Start }

func (lt Lifetime) String() string {
	return fmt.Sprintf("[%d,%d) %v", lt.Start, lt.End, lt.Dep)
}

// Compatible implements Theorem 1.1: two lifetimes may share a FIFO queue
// if and only if, taking La >= Lb,
//
//	La - Lb  <  (Sb - Sa) mod II.
//
// The condition guarantees that across all iteration instances the
// production order equals the consumption order, with no two writes or two
// reads of the queue in the same cycle (see DESIGN.md §3 for the
// derivation; TestCompatibleMatchesFIFOSimulation validates it by brute
// force).
func Compatible(a, b Lifetime, ii int) bool {
	la, lb := a.Len(), b.Len()
	sa, sb := a.Start, b.Start
	if la < lb {
		la, lb = lb, la
		sa, sb = sb, sa
	}
	g := ((sb-sa)%ii + ii) % ii
	return la-lb < g
}

// CompatibleSet reports whether every pair in the set is compatible;
// pairwise compatibility implies whole-set FIFO correctness.
func CompatibleSet(lts []Lifetime, ii int) bool {
	for i := range lts {
		for j := i + 1; j < len(lts); j++ {
			if !Compatible(lts[i], lts[j], ii) {
				return false
			}
		}
	}
	return true
}

// BuildLifetimes derives one lifetime per flow dependence of the schedule.
// Values that are never consumed produce no lifetime.
func BuildLifetimes(s *sched.Schedule) []Lifetime {
	return appendLifetimes(nil, s)
}

// appendLifetimes appends the schedule's lifetimes to lts, growing it at
// most once: Allocate builds them into its pooled scratch.
func appendLifetimes(lts []Lifetime, s *sched.Schedule) []Lifetime {
	n := 0
	for _, d := range s.Loop.Deps {
		if d.Kind == ir.Flow {
			n++
		}
	}
	lts = slices.Grow(lts, n)
	for di, d := range s.Loop.Deps {
		if d.Kind != ir.Flow {
			continue
		}
		start := s.Time[d.From] + s.Loop.Ops[d.From].Kind.Latency()
		if s.Cluster[d.From] != s.Cluster[d.To] {
			start += s.Machine.CommLatency
		}
		end := s.Time[d.To] + s.II*d.Dist
		lts = append(lts, Lifetime{Dep: d, DepIndex: di, Start: start, End: end})
	}
	return lts
}

// phase is a lifetime reduced to what Theorem 1.1 and the occupancy
// formula read: its start modulo II, in [0, II), and its length.
type phase struct {
	r, l int
}

func phaseOf(start, end, ii int) phase {
	r := start % ii
	if r < 0 {
		r += ii
	}
	return phase{r: r, l: end - start}
}

// compatible is Compatible on precomputed phases: no division.
func compatible(a, b phase, ii int) bool {
	if a.l < b.l {
		a, b = b, a
	}
	g := b.r - a.r
	if g < 0 {
		g += ii
	}
	return a.l-b.l < g
}

// MaxOccupancy returns the largest number of values simultaneously resident
// in a queue holding the given lifetimes, in pipeline steady state. A
// lifetime of length L contributes ceil((L-r)/II) instances at phase
// offset r from its start; see occupy for the closed form it is computed
// by, in O(len(lts) + II).
func MaxOccupancy(lts []Lifetime, ii int) int {
	diff := make([]int32, ii+1)
	base := 0
	for _, lt := range lts {
		base += occupy(diff, phaseOf(lt.Start, lt.End, ii), ii)
	}
	return base + peak(diff, ii)
}

// occupy adds one lifetime to a queue's occupancy profile over the II
// phases. Writing its length as L = q·II + m (0 <= m < II), the lifetime
// has ceil((L-r)/II) = q + [r < m] instances resident at phase offset r
// from its start: q everywhere, plus one on the m phases from its start
// phase on (circularly). occupy returns q and records the m-phase run in
// the circular difference array diff (II+1 entries). Lifetimes of length
// zero or less are never resident.
func occupy(diff []int32, p phase, ii int) int {
	if p.l <= 0 {
		return 0
	}
	q, m := p.l/ii, p.l%ii
	if m > 0 {
		diff[p.r]++
		if e := p.r + m; e <= ii {
			diff[e]--
		} else {
			diff[0]++
			diff[e-ii]--
		}
	}
	return q
}

// peak returns the largest prefix sum of diff over the II phases and
// zeroes diff for the next queue.
func peak(diff []int32, ii int) int {
	var run, best int32
	for p := 0; p < ii; p++ {
		run += diff[p]
		diff[p] = 0
		best = max(best, run)
	}
	diff[ii] = 0
	return int(best)
}
