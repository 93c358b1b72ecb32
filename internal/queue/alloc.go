package queue

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"vliwq/internal/machine"
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
// first-fit over lifetimes sorted by (start, end, dependence index): a
// lifetime goes to the first queue of its location whose current residents
// are all compatible with it, opening a new queue when none fits.
// Minimum-queue allocation is a clique-cover problem; first-fit is the
// paper's practical stand-in.
//
// The allocator is dense (DESIGN.md §3). Files sit in a flat table indexed
// by (producer cluster, consumer cluster), each queue's residents are an
// intrusive list over sorted positions, every lifetime's start phase and
// length are computed once, so no compatibility test divides, and each
// queue's depth comes from one pass over its residents and the II phases.
// Every working array comes from a pooled scratch, so a call allocates
// only what it returns: the Allocation, its Assignments, its Files and one
// array that holds every file's MaxOccupancy.
//
// First-fit grows about quadratically with the lifetimes that share a
// file, so Allocate reads ctx before the first lifetime it places and
// every allocCheckEvery lifetimes after. Once ctx is done it returns ctx's
// error, unwrapped, and no allocation.
func Allocate(ctx context.Context, s *sched.Schedule) (*Allocation, error) {
	scr := scratchPool.Get().(*scratch)
	defer scratchPool.Put(scr)
	return scr.allocate(ctx, s)
}

// allocate is Allocate on the given scratch, whatever it holds.
func (scr *scratch) allocate(ctx context.Context, s *sched.Schedule) (*Allocation, error) {
	ii := s.II
	scr.lts = appendLifetimes(scr.lts[:0], s)
	lts := scr.lts
	n := len(lts)
	alloc := &Allocation{II: ii}
	if n == 0 {
		return alloc, nil
	}
	nc := 0
	for _, lt := range lts {
		d := s.Loop.Deps[lt.DepIndex]
		nc = max(nc, s.Cluster[d.From]+1, s.Cluster[d.To]+1)
	}
	keys := scr.placementOrder(lts)

	// ph[i] and next[i] belong to the i-th lifetime in sorted order: its
	// phase and the next older resident of its queue (-1 ends the list).
	// Every entry is written before it is read; only the file table must
	// start zeroed.
	scr.ph = resize(scr.ph, n)
	scr.next = resize(scr.next, n)
	scr.queues = resize(scr.queues, n) // every queue holds at least one lifetime
	scr.files = resize(scr.files, nc*nc)
	ph, next, queues, files := scr.ph, scr.next, scr.queues[:0], scr.files
	clear(files)
	nfiles := 0
	alloc.Assignments = make([]Assignment, n)
	for i, k := range keys {
		if i%allocCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		lt := &lts[k.lt]
		d := s.Loop.Deps[lt.DepIndex]
		cp, cc := s.Cluster[d.From], s.Cluster[d.To]
		f := &files[cp*nc+cc]
		p := phaseOf(lt.Start, lt.End, ii)
		ph[i] = p
		q, qi := f.first, int32(0)
		for ; qi < f.n; q, qi = queues[q].next, qi+1 {
			if fits(ph, next, queues[q].head, p, ii) {
				break
			}
		}
		if qi == f.n {
			q = int32(len(queues))
			queues = append(queues, fifo{head: -1, next: -1})
			if f.n == 0 {
				f.first = q
				nfiles++
			} else {
				queues[f.last].next = q
			}
			f.last = q
			f.n++
		}
		next[i] = queues[q].head
		queues[q].head = int32(i)
		loc := Location{Kind: Private, From: cp, To: cp}
		if cp != cc {
			loc = Location{Kind: Ring, From: cp, To: cc}
		}
		alloc.Assignments[i] = Assignment{Lifetime: *lt, Loc: loc, Queue: int(qi)}
	}

	// Emit the files in (kind, from, to) order: the private QRFs on the
	// table's diagonal, then the ring links row by row.
	alloc.Files = make([]FileUsage, 0, nfiles)
	depths := make([]int, len(queues))
	scr.diff = resize(scr.diff, ii+1)
	diff := scr.diff
	clear(diff) // peak leaves it zeroed for the next queue
	emit := func(loc Location) {
		f := files[loc.From*nc+loc.To]
		if f.n == 0 {
			return
		}
		occ := depths[:f.n:f.n]
		depths = depths[f.n:]
		for j, q := 0, f.first; j < len(occ); j, q = j+1, queues[q].next {
			base := 0
			for r := queues[q].head; r >= 0; r = next[r] {
				base += occupy(diff, ph[r], ii)
			}
			occ[j] = base + peak(diff, ii)
		}
		alloc.Files = append(alloc.Files, FileUsage{Loc: loc, Queues: int(f.n), MaxOccupancy: occ})
	}
	for c := 0; c < nc; c++ {
		emit(Location{Kind: Private, From: c, To: c})
	}
	for from := 0; from < nc; from++ {
		for to := 0; to < nc; to++ {
			if from != to {
				emit(Location{Kind: Ring, From: from, To: to})
			}
		}
	}
	return alloc, nil
}

// allocCheckEvery is how many lifetimes Allocate places between two reads
// of its context. On a 24,576-op chain whose lifetimes share four files
// that is ~12 ms of first-fit on one 2.1 GHz Xeon core; the paper's loops
// are read once.
const allocCheckEvery = 2048

// scratch is the working storage of Allocate and Verify, recycled through
// scratchPool as the scheduler recycles its state: each array grows to the
// largest schedule its processor has seen and is reused from then on.
// Nothing a call returns points into it. An idle scratch lives as long as
// any sync.Pool entry, at most two collections.
type scratch struct {
	lts     []Lifetime
	keys    []lkey // Allocate's placement order
	radix   []lkey // placementOrder's sort buffer
	ph      []phase
	next    []int32
	queues  []fifo
	files   []file  // Allocate's nc·nc file table, cleared per call
	diff    []int32 // the II+1 occupancy difference array, cleared per call
	cnt     []int32 // GroupByQueue's counting-sort cursors
	byQueue []int32 // GroupByQueue's first pass
	order   []int32 // Verify's assignments, grouped by queue
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// resize returns s with length n, reusing its storage when it is large
// enough. The contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// lkey is a lifetime's sort key: Allocate places lifetimes in (start,
// end, dependence index) order.
type lkey struct {
	start, end, lt int // lt indexes BuildLifetimes' slice
}

// byEnd orders two keys of one start by end, then by lifetime index.
func (x lkey) byEnd(y lkey) int {
	if c := cmp.Compare(x.end, y.end); c != 0 {
		return c
	}
	return cmp.Compare(x.lt, y.lt)
}

// placementOrder returns the keys of lts, which BuildLifetimes yields in
// dependence order, in (start, end, dependence index) order, in the
// scratch's keys array. An LSD radix sort of each start's offset from the
// earliest, one stable counting pass per byte the largest offset has,
// orders them by start and keeps equal starts in dependence order; each
// run of one start is then ordered by end, ties by index. A run is
// usually a lifetime or two, and one value read by k consumers makes a
// run of k, which the run's sort orders in O(k log k) comparisons.
func (scr *scratch) placementOrder(lts []Lifetime) []lkey {
	n := len(lts)
	keys, tmp := resize(scr.keys, n), resize(scr.radix, n)
	lo, hi := lts[0].Start, lts[0].Start
	for i, lt := range lts {
		keys[i] = lkey{start: lt.Start, end: lt.End, lt: i}
		lo, hi = min(lo, lt.Start), max(hi, lt.Start)
	}
	// A pass's digits run to 0xff, or to the largest offset's in the top
	// pass, which is the only pass when the starts span fewer than 256
	// cycles. The offsets are taken as uint64, which holds any span of
	// two ints exactly.
	var digits [257]int32
	span := uint64(hi) - uint64(lo)
	for shift := uint(0); shift < 64 && span>>shift != 0; shift += 8 {
		digit := func(k *lkey) int { return int((uint64(k.start) - uint64(lo)) >> shift & 0xff) }
		cnt := digits[:min(span>>shift, 0xff)+2]
		clear(cnt)
		for i := range keys {
			cnt[digit(&keys[i])+1]++
		}
		for d := 1; d < len(cnt); d++ {
			cnt[d] += cnt[d-1]
		}
		for i := range keys {
			c := &cnt[digit(&keys[i])]
			tmp[*c] = keys[i]
			*c++
		}
		keys, tmp = tmp, keys
	}
	scr.keys, scr.radix = keys, tmp
	for i := 0; i < n; {
		j := i + 1
		for j < n && keys[j].start == keys[i].start {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(keys[i:j], lkey.byEnd)
		}
		i = j
	}
	return keys
}

// file is one queue file's entry in Allocate's table: its first and last
// queue (indices into the allocator's queue list) and its queue count.
type file struct {
	first, last, n int32
}

// fifo is one queue: its newest resident and the file's next queue.
type fifo struct {
	head, next int32
}

// fits reports whether a lifetime of phase p is compatible with every
// resident of the queue whose newest resident is head.
func fits(ph []phase, next []int32, head int32, p phase, ii int) bool {
	for r := head; r >= 0; r = next[r] {
		if !compatible(ph[r], p, ii) {
			return false
		}
	}
	return true
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

// Verify checks that every queue's residents are pairwise compatible. It
// groups the assignments by queue as GroupByQueue does, so the queues come
// out in (kind, from, to, queue) order and the queue it names first is
// deterministic, and rejects an allocation that names queues no machine
// has as GroupByQueue does. The pairwise test grows quadratically with a
// queue's residents, so Verify reads ctx once per queue and returns its
// error, unwrapped, once it is done.
func (a *Allocation) Verify(ctx context.Context) error {
	scr := scratchPool.Get().(*scratch)
	defer scratchPool.Put(scr)
	return scr.verify(ctx, a)
}

// verify is Verify on the given scratch, whatever it holds.
func (scr *scratch) verify(ctx context.Context, a *Allocation) error {
	as := a.Assignments
	n := len(as)
	scr.order = resize(scr.order, n)
	order := scr.order
	for i := range order {
		order[i] = int32(i)
	}
	if err := scr.groupByQueue(as, order, order); err != nil {
		return err
	}
	scr.ph = resize(scr.ph, n)
	ph := scr.ph
	for j, i := range order {
		ph[j] = phaseOf(as[i].Lifetime.Start, as[i].Lifetime.End, a.II)
	}
	for lo := 0; lo < n; {
		if err := ctx.Err(); err != nil {
			return err
		}
		first := &as[order[lo]]
		hi := lo + 1
		for hi < n && as[order[hi]].Loc == first.Loc && as[order[hi]].Queue == first.Queue {
			hi++
		}
		for i := lo; i < hi; i++ {
			for j := i + 1; j < hi; j++ {
				if !compatible(ph[i], ph[j], a.II) {
					return fmt.Errorf("queue: %v queue %d holds incompatible lifetimes", first.Loc, first.Queue)
				}
			}
		}
		lo = hi
	}
	return nil
}

// GroupByQueue writes the assignment indices idx to dst, which is as long
// and may be idx itself, grouped by queue: the queues in (kind, from, to,
// queue) order, and each queue's indices in their order in idx. Two
// stable counting passes, by queue index and then by location, run on the
// pooled scratch Allocate uses, over flat arrays as long as the spans the
// indexed assignments use. Assignments whose locations span more than
// machine.MaxClusters clusters, or whose queue indices span more than
// maxQueueSpan, name queues no machine has: GroupByQueue rejects them
// with an error and leaves dst unspecified.
func GroupByQueue(as []Assignment, idx, dst []int32) error {
	scr := scratchPool.Get().(*scratch)
	defer scratchPool.Put(scr)
	return scr.groupByQueue(as, idx, dst)
}

// groupByQueue is GroupByQueue on the given scratch, whatever it holds.
func (scr *scratch) groupByQueue(as []Assignment, idx, dst []int32) error {
	if len(idx) == 0 {
		return nil
	}
	// mn and mx hold the least and greatest kind, from, to and queue.
	mn, mx := as[idx[0]], as[idx[0]]
	for _, i := range idx {
		x := &as[i]
		mn.Loc.Kind, mx.Loc.Kind = min(mn.Loc.Kind, x.Loc.Kind), max(mx.Loc.Kind, x.Loc.Kind)
		mn.Loc.From, mx.Loc.From = min(mn.Loc.From, x.Loc.From), max(mx.Loc.From, x.Loc.From)
		mn.Loc.To, mx.Loc.To = min(mn.Loc.To, x.Loc.To), max(mx.Loc.To, x.Loc.To)
		mn.Queue, mx.Queue = min(mn.Queue, x.Queue), max(mx.Queue, x.Queue)
	}
	// The spans are compared as uint so that one wider than the int range
	// cannot wrap into a small one.
	if uint(mx.Loc.From-mn.Loc.From) >= machine.MaxClusters || uint(mx.Loc.To-mn.Loc.To) >= machine.MaxClusters ||
		uint(mx.Queue-mn.Queue) >= maxQueueSpan {
		return fmt.Errorf("queue: assignments span locations %v to %v and queues %d to %d, beyond any machine",
			mn.Loc, mx.Loc, mn.Queue, mx.Queue)
	}
	nf, nt, nq := mx.Loc.From-mn.Loc.From+1, mx.Loc.To-mn.Loc.To+1, mx.Queue-mn.Queue+1
	nfiles := (int(mx.Loc.Kind-mn.Loc.Kind) + 1) * nf * nt
	fileOf := func(x *Assignment) int {
		return (int(x.Loc.Kind-mn.Loc.Kind)*nf+x.Loc.From-mn.Loc.From)*nt + x.Loc.To - mn.Loc.To
	}
	queueOf := func(x *Assignment) int { return x.Queue - mn.Queue }

	// bucket clears the cursors it uses, and every other entry is written
	// before it is read.
	scr.cnt = resize(scr.cnt, max(nfiles, nq)+1)
	scr.byQueue = resize(scr.byQueue, len(idx))
	cnt, byQueue := scr.cnt, scr.byQueue
	bucket := func(dst, src []int32, key func(*Assignment) int, keys int) {
		clear(cnt[:keys+1])
		for _, i := range src {
			cnt[key(&as[i])+1]++
		}
		for k := 1; k <= keys; k++ {
			cnt[k] += cnt[k-1]
		}
		for _, i := range src {
			c := &cnt[key(&as[i])]
			dst[*c] = i
			*c++
		}
	}
	bucket(byQueue, idx, queueOf, nq)
	bucket(dst, byQueue, fileOf, nfiles)
	return nil
}

// maxQueueSpan bounds the queue indices GroupByQueue buckets: far more
// queues than one file of any loop fills, and a bound on its scratch
// arrays.
const maxQueueSpan = 1 << 20
