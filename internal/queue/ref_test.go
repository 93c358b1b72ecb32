package queue

import (
	"fmt"
	"slices"
	"sort"

	"vliwq/internal/sched"
)

// This file keeps the allocator as it was before the dense rewrite, as the
// test oracle of Allocate, MaxOccupancy and Verify: map-keyed files, queues
// of copied lifetimes, an O(n·II) occupancy count and a comparison-sorted
// Verify. Production has no hook into it.

// allocateRef is the map-based first-fit allocator.
func allocateRef(s *sched.Schedule) *Allocation {
	lts := BuildLifetimes(s)
	order := make([]int, len(lts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := lts[order[a]], lts[order[b]]
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		if x.End != y.End {
			return x.End < y.End
		}
		return x.DepIndex < y.DepIndex
	})

	type file struct {
		queues [][]Lifetime
	}
	files := map[Location]*file{}
	alloc := &Allocation{II: s.II}
	for _, idx := range order {
		lt := lts[idx]
		loc := locateRef(s, lt)
		f := files[loc]
		if f == nil {
			f = &file{}
			files[loc] = f
		}
		q := -1
		for i, resident := range f.queues {
			ok := true
			for _, r := range resident {
				if !Compatible(lt, r, s.II) {
					ok = false
					break
				}
			}
			if ok {
				q = i
				break
			}
		}
		if q < 0 {
			q = len(f.queues)
			f.queues = append(f.queues, nil)
		}
		f.queues[q] = append(f.queues[q], lt)
		alloc.Assignments = append(alloc.Assignments, Assignment{Lifetime: lt, Loc: loc, Queue: q})
	}

	locs := make([]Location, 0, len(files))
	for loc := range files {
		locs = append(locs, loc)
	}
	sort.Slice(locs, func(i, j int) bool {
		if locs[i].Kind != locs[j].Kind {
			return locs[i].Kind < locs[j].Kind
		}
		if locs[i].From != locs[j].From {
			return locs[i].From < locs[j].From
		}
		return locs[i].To < locs[j].To
	})
	for _, loc := range locs {
		f := files[loc]
		u := FileUsage{Loc: loc, Queues: len(f.queues)}
		for _, resident := range f.queues {
			u.MaxOccupancy = append(u.MaxOccupancy, maxOccupancyRef(resident, s.II))
		}
		alloc.Files = append(alloc.Files, u)
	}
	return alloc
}

// locateRef returns the queue file that must hold the lifetime: the
// consumer cluster's private QRF when producer and consumer share a
// cluster, the directed ring link otherwise.
func locateRef(s *sched.Schedule, lt Lifetime) Location {
	cp := s.Cluster[lt.Dep.From]
	cc := s.Cluster[lt.Dep.To]
	if cp == cc {
		return Location{Kind: Private, From: cp, To: cp}
	}
	return Location{Kind: Ring, From: cp, To: cc}
}

// maxOccupancyRef counts, at every phase, the instances each lifetime has
// resident: ceil((L-r)/II) at phase offset r from its start.
func maxOccupancyRef(lts []Lifetime, ii int) int {
	max := 0
	for phase := 0; phase < ii; phase++ {
		n := 0
		for _, lt := range lts {
			r := ((phase-lt.Start)%ii + ii) % ii
			if l := lt.Len() - r; l > 0 {
				n += (l + ii - 1) / ii
			}
		}
		if n > max {
			max = n
		}
	}
	return max
}

// verifyRef groups the assignments by sorting them on (kind, from, to,
// queue) and checks the groups in that order.
func verifyRef(a *Allocation) error {
	order := make([]int, len(a.Assignments))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int {
		return CompareQueues(&a.Assignments[i], &a.Assignments[j])
	})
	lts := make([]Lifetime, len(order))
	for i, ai := range order {
		lts[i] = a.Assignments[ai].Lifetime
	}
	for lo := 0; lo < len(order); {
		first := &a.Assignments[order[lo]]
		hi := lo + 1
		for hi < len(order) && CompareQueues(first, &a.Assignments[order[hi]]) == 0 {
			hi++
		}
		if !CompatibleSet(lts[lo:hi], a.II) {
			return fmt.Errorf("queue: %v queue %d holds incompatible lifetimes", first.Loc, first.Queue)
		}
		lo = hi
	}
	return nil
}
