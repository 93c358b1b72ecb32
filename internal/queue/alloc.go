package queue

import (
	"fmt"
	"slices"
	"sort"

	"vliwq/internal/sched"
)

// LocKind distinguishes private QRFs from ring communication queues.
type LocKind uint8

const (
	// Private is a cluster's own queue register file.
	Private LocKind = iota
	// Ring is a directed communication link between ring-adjacent
	// clusters.
	Ring
)

// Location identifies a physical queue file: either the private QRF of a
// cluster (From == To) or the directed ring link From -> To between
// adjacent clusters.
type Location struct {
	Kind LocKind
	From int
	To   int
}

func (loc Location) String() string {
	if loc.Kind == Private {
		return fmt.Sprintf("qrf%d", loc.From)
	}
	return fmt.Sprintf("ring%d->%d", loc.From, loc.To)
}

// Assignment maps one lifetime to a queue.
type Assignment struct {
	Lifetime Lifetime
	Loc      Location
	Queue    int // queue index within the location, 0-based
}

// FileUsage summarizes one queue file after allocation.
type FileUsage struct {
	Loc          Location
	Queues       int   // number of queues used
	MaxOccupancy []int // per queue, the steady-state positions needed
}

// Allocation is the result of mapping every lifetime of a schedule to a
// queue.
type Allocation struct {
	II          int
	Assignments []Assignment
	Files       []FileUsage
}

// Allocate maps each lifetime of the schedule to a queue using greedy
// first-fit over lifetimes sorted by (start, end): a lifetime goes to the
// first queue of its location whose current residents are all compatible
// with it, opening a new queue when none fits. Minimum-queue allocation is
// a clique-cover problem; first-fit is the paper's practical stand-in.
func Allocate(s *sched.Schedule) *Allocation {
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
		loc := locate(s, lt)
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
			u.MaxOccupancy = append(u.MaxOccupancy, MaxOccupancy(resident, s.II))
		}
		alloc.Files = append(alloc.Files, u)
	}
	return alloc
}

// locate returns the queue file that must hold the lifetime: the consumer
// cluster's private QRF when producer and consumer share a cluster, the
// directed ring link otherwise.
func locate(s *sched.Schedule, lt Lifetime) Location {
	cp := s.Cluster[lt.Dep.From]
	cc := s.Cluster[lt.Dep.To]
	if cp == cc {
		return Location{Kind: Private, From: cp, To: cp}
	}
	return Location{Kind: Ring, From: cp, To: cc}
}

// MaxPrivateQueues returns the largest number of queues used in any
// cluster's private QRF (the "queues required" metric of Figs. 3 and the
// unrolling experiment, where machines are single-cluster).
func (a *Allocation) MaxPrivateQueues() int {
	max := 0
	for _, f := range a.Files {
		if f.Loc.Kind == Private && f.Queues > max {
			max = f.Queues
		}
	}
	return max
}

// MaxRingQueues returns the largest number of queues used on any directed
// ring link.
func (a *Allocation) MaxRingQueues() int {
	max := 0
	for _, f := range a.Files {
		if f.Loc.Kind == Ring && f.Queues > max {
			max = f.Queues
		}
	}
	return max
}

// MaxDepth returns the deepest steady-state queue occupancy anywhere.
func (a *Allocation) MaxDepth() int {
	max := 0
	for _, f := range a.Files {
		for _, d := range f.MaxOccupancy {
			if d > max {
				max = d
			}
		}
	}
	return max
}

// FitsMachine reports whether the allocation respects the schedule
// machine's declared queue resources: private QRF sizes, ring queues per
// directed link, and queue depths (a zero limit means unconstrained).
func (a *Allocation) FitsMachine(s *sched.Schedule) error {
	byLoc := map[Location]FileUsage{}
	for _, f := range a.Files {
		byLoc[f.Loc] = f
	}
	for loc, f := range byLoc {
		switch loc.Kind {
		case Private:
			cl := s.Machine.Clusters[loc.From]
			if cl.PrivateQueues > 0 && f.Queues > cl.PrivateQueues {
				return fmt.Errorf("queue: cluster %d needs %d private queues, has %d",
					loc.From, f.Queues, cl.PrivateQueues)
			}
			if cl.QueueDepth > 0 {
				for q, d := range f.MaxOccupancy {
					if d > cl.QueueDepth {
						return fmt.Errorf("queue: cluster %d queue %d needs depth %d, has %d",
							loc.From, q, d, cl.QueueDepth)
					}
				}
			}
		case Ring:
			if s.Machine.RingQueues > 0 && f.Queues > s.Machine.RingQueues {
				return fmt.Errorf("queue: link %v needs %d queues, has %d",
					loc, f.Queues, s.Machine.RingQueues)
			}
		}
	}
	return nil
}

// Verify checks that every queue's residents are pairwise compatible. It
// groups the assignments by sorting them on (kind, from, to, queue) and
// checks the groups in that order, so the queue it names is deterministic.
func (a *Allocation) Verify() error {
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

// CompareQueues orders assignments by the queue they name: location kind,
// from, to, then queue index. It returns 0 for assignments to one queue.
func CompareQueues(x, y *Assignment) int {
	switch {
	case x.Loc.Kind != y.Loc.Kind:
		return int(x.Loc.Kind) - int(y.Loc.Kind)
	case x.Loc.From != y.Loc.From:
		return x.Loc.From - y.Loc.From
	case x.Loc.To != y.Loc.To:
		return x.Loc.To - y.Loc.To
	}
	return x.Queue - y.Queue
}
