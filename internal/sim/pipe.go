package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"vliwq/internal/ir"
	"vliwq/internal/machine"
	"vliwq/internal/queue"
	"vliwq/internal/sched"
)

// PipeOptions configure the pipelined execution.
type PipeOptions struct {
	// N is the number of body iterations to execute; 0 uses the loop's
	// trip count.
	N int
}

// PipeResult is the outcome of a pipelined execution.
type PipeResult struct {
	Cycles   int // cycles from first event to pipeline drain
	Issues   int // operation instances issued
	MaxDepth int // deepest queue occupancy observed
}

// Pipelined executes n iterations of the modulo schedule on a cycle-level
// model of the queue-register-file machine. Every queue pop checks that
// FIFO order delivers the exact (producer, iteration) instance the
// dependence requires. A queue read destroys its value, so only a copy
// operation may feed two queues (paper §2): an ordinary operation whose
// value has two consumers is rejected before the run.
func Pipelined(s *sched.Schedule, alloc *queue.Allocation, opt PipeOptions) (*PipeResult, error) {
	n := opt.N
	if n <= 0 {
		n = s.Loop.TripCount()
	}
	scr := scratchPool.Get().(*scratch)
	defer scratchPool.Put(scr)
	res := &PipeResult{}
	if _, err := scr.pipelined(context.Background(), s, alloc, n, res); err != nil {
		return nil, err
	}
	return res, nil
}

// VerifyPipeline runs both executions and compares their stores. It is the
// end-to-end check the compile engine runs, for min(trip, 64, Horizon(s))
// iterations unless told otherwise. Both runs execute the same loop for the
// same n, so their store instances pair up one to one by (op, body
// iteration) and are compared directly, without building a Stores map for
// either side. The pipelined run checks ctx once per II-cycle window it
// visits and returns ctx.Err() as soon as it is non-nil. Both runs take
// their working arrays from one pooled scratch, so a call allocates
// nothing once its processor has replayed a loop as large.
func VerifyPipeline(ctx context.Context, s *sched.Schedule, alloc *queue.Allocation, n int) error {
	scr := scratchPool.Get().(*scratch)
	defer scratchPool.Put(scr)
	return scr.verifyPipeline(ctx, s, alloc, n)
}

// verifyPipeline is VerifyPipeline on the given scratch, whatever it holds.
func (scr *scratch) verifyPipeline(ctx context.Context, s *sched.Schedule, alloc *queue.Allocation, n int) error {
	if n <= 0 {
		n = s.Loop.TripCount()
	}
	l := s.Loop
	want, err := scr.reference(l, n)
	if err != nil {
		return err
	}
	var res PipeResult
	got, err := scr.pipelined(ctx, s, alloc, n, &res)
	if err != nil {
		return err
	}
	for id, op := range l.Ops {
		if op.Kind != ir.KStore {
			continue
		}
		for k := 0; k < n; k++ {
			if a, b := want[id*n+k], got[id*n+k]; a != b {
				return fmt.Errorf("sim: store %+v differs: %d vs %d", StoreKey{op.EffID(), l.OrigIter(op, k)}, a, b)
			}
		}
	}
	return nil
}

// scratch is the working storage of one replay: every array the reference
// and the pipelined run use, recycled through scratchPool as the queue
// stage and the scheduler recycle theirs. Each array grows to the largest
// replay its processor has seen and is reused from then on, and every
// entry a run reads it has written or cleared first. Nothing a pooled
// scratch holds outlives the call that took it; Reference, whose result
// keeps its values, runs on a scratch of its own.
type scratch struct {
	// Both runs: each op's flow-input dependences, in operand order, and
	// the operand buffer.
	in   ir.DepIndex
	args []int64

	// The reference run: its topological order and its values.
	order []int32
	want  []int64

	// The pipelined run.
	fan            []int32 // flow fanout per op
	asOf           []int32 // each dependence's assignment, -1 = none
	flows          []int32 // the flow dependences in Deps order
	grouped        []int32 // the flows' assignments, grouped by queue
	cnt            []int32 // rank's counting-sort cursors
	qOf            []int32 // each flow dependence's queue
	qs             []fifo
	buf            []entry
	got            []int64
	unranked, ev   []walkEvent // events in Deps-then-op-ID order, then by rank
	byStart, radix []int32     // ranks in order of their first window, and its sort buffer
	live           []uint64
	written        []int32
	fuCap, fuUsed  []int32
	fuStamp        []int
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

// entry is one value resident in a queue, named by the instance that
// produced it (iter < 0 marks a live-in; a long carried distance takes it
// far below the int32 range). A value never changes once computed, so a
// pop whose tag checks out reads it from the producer's slot.
type entry struct {
	prod int32
	iter int
}

// fifo is one physical queue: a fixed segment of the run's shared entry
// buffer, filled at tail and drained at head, both starting at the
// segment's start. Every flow dependence writes exactly n values, so a
// queue carrying m dependences needs m*n slots and never more. wrote and
// read hold the stamp of the last cycle that used the queue's write and
// read port (0 = never).
type fifo struct {
	loc         queue.Location
	q           int
	head, tail  int
	limit       int // declared depth, 0 = unbounded
	wrote, read int
}

// walkEvent is one flow dependence's write or one op's issue, an event of
// every window it is live in. It happens in row row of each window and, in
// window w, writes producer iteration (or issues instance) w-win; it is
// live for the n windows from start on. idx is the dependence index of a
// write and the op ID of an issue, and aux the write's queue or the
// issue's FU slot.
type walkEvent struct {
	start, win int
	row        int32
	idx, aux   int32
	write      bool
}

// pipelined is the dense pipelined execution behind Pipelined and
// VerifyPipeline, for n >= 1 iterations. Every op and flow dependence has
// one event in each of n consecutive II-cycle windows; the run ranks those
// events once in the order a window runs them (rows ascending; in a row,
// writes in Deps order, then issues in op-ID order, each popping its
// operands in FlowInputs order), which is the event order of the map-based
// oracle the tests diff it against, so both name the same event in every
// error. A bitset over the ranks holds the live events: each one enters at
// its first window and retires n windows later, so a window costs its
// bitset words and its live events, and windows and rows with no event
// cost nothing. Values live in one flat [op*n+k] slice, which it returns.
// res receives Cycles, Issues and MaxDepth. ctx is checked once per
// visited window, and by the allocation's Verify once per queue.
func (scr *scratch) pipelined(ctx context.Context, s *sched.Schedule, alloc *queue.Allocation, n int, res *PipeResult) ([]int64, error) {
	l := s.Loop
	if err := s.Verify(); err != nil {
		return nil, err
	}
	if err := alloc.Verify(ctx); err != nil {
		return nil, err
	}

	// Static check: a queue read destroys its value, so a value with two
	// consumers needs two queue writes in one cycle, which only a copy
	// operation makes; everything else must have fanout <= 1.
	fan := resize(scr.fan, len(l.Ops))
	scr.fan = fan
	clear(fan)
	for _, d := range l.Deps {
		if d.Kind == ir.Flow {
			fan[d.From]++
		}
	}
	for id, op := range l.Ops {
		limit := int32(1)
		if op.Kind == ir.KCopy {
			limit = 2
		}
		if fan[id] > limit {
			return nil, fmt.Errorf("sim: %v has fanout %d: value needs %d simultaneous writes (run copy insertion)",
				op, fan[id], fan[id])
		}
	}

	// Queue of every flow dependence: the last assignment naming it wins,
	// as an index-keyed lookup would.
	asOf := resize(scr.asOf, len(l.Deps))
	scr.asOf = asOf
	for i := range asOf {
		asOf[i] = -1
	}
	for i := range alloc.Assignments {
		if di := alloc.Assignments[i].Lifetime.DepIndex; di >= 0 && di < len(l.Deps) {
			asOf[di] = int32(i)
		}
	}
	flows := scr.flows[:0]
	for di, d := range l.Deps {
		if d.Kind != ir.Flow {
			continue
		}
		if asOf[di] < 0 {
			return nil, fmt.Errorf("sim: dependence %v (index %d) has no queue assignment", d, di)
		}
		flows = append(flows, int32(di))
	}
	scr.flows = flows
	qs, qOf, err := scr.layoutQueues(s, alloc, n)
	if err != nil {
		return nil, err
	}
	buf := resize(scr.buf, len(flows)*n)
	scr.buf = buf

	// The timeline. An op issues instance k at Time+k*II for k in [0,n); a
	// flow dependence of distance d writes producer iteration k at
	// wbase+k*II for k in [-d, n-d), where wbase = Time[from]+lat(+comm),
	// so its first d live-in writes can fall before cycle 0, and a long
	// distance or comm latency leaves stretches of cycles with no event.
	// Either way every op and flow dependence has one event in each of n
	// consecutive II-cycle windows, starting at the window of its first
	// event.
	ii := s.II
	const classes = int32(machine.NumClasses)
	nev := len(flows) + len(l.Ops)
	unranked := resize(scr.unranked, nev)[:0]
	tmin, tmax := math.MaxInt, math.MinInt
	span := func(first int) int {
		tmin, tmax = min(tmin, first), max(tmax, first+(n-1)*ii)
		return floorDiv(first, ii)
	}
	for _, di := range flows {
		d := &l.Deps[di]
		// Keep d*II, and so every cycle of the run, far from overflow.
		if beyondCarry(d.Dist, ii) {
			return nil, fmt.Errorf("sim: dependence %v: distance %d at II %d is beyond the simulated cycle range", *d, d.Dist, ii)
		}
		wbase := writeBase(s, *d)
		unranked = append(unranked, walkEvent{start: span(wbase - d.Dist*ii), win: floorDiv(wbase, ii),
			row: int32(mod(wbase, ii)), idx: di, aux: qOf[di], write: true})
	}
	for id, op := range l.Ops {
		t := s.Time[id]
		unranked = append(unranked, walkEvent{start: span(t), win: floorDiv(t, ii),
			row: int32(mod(t, ii)), idx: int32(id), aux: int32(s.Cluster[id])*classes + int32(machine.ClassOf(op.Kind))})
	}
	scr.unranked = unranked
	ev, byStart := scr.rank(ii)
	l.IndexDeps(&scr.in, ir.FlowDeps, false)
	inputs := scr.in

	// FU slots are (cluster, class) pairs, counted per cycle.
	nslots := s.Machine.NumClusters() * int(classes)
	fuCap := resize(scr.fuCap, nslots)
	fuStamp := resize(scr.fuStamp, nslots)
	fuUsed := resize(scr.fuUsed, nslots)
	scr.fuCap, scr.fuStamp, scr.fuUsed = fuCap, fuStamp, fuUsed
	for cl, c := range s.Machine.Clusters {
		for class, units := range c.FUs {
			fuCap[int32(cl)*classes+int32(class)] = int32(units)
		}
	}
	clear(fuStamp)
	vals := resize(scr.got, len(l.Ops)*n)
	scr.got = vals
	args := scr.args[:0]
	defer func() { scr.args = args }()
	written := scr.written[:0]
	defer func() { scr.written = written }()
	live := resize(scr.live, (nev+63)/64)
	scr.live = live
	clear(live)

	// The window walk. in and out count the ranks (in byStart order) that
	// have entered and retired; when none is live the walk jumps to the
	// next one's first window. stamp numbers the visited cycles from 1, so
	// a zero port or FU stamp means "never used".
	stamp := 0
	for w, in, out := 0, 0, 0; ; w++ {
		for ; out < in && ev[byStart[out]].start+n <= w; out++ {
			r := byStart[out]
			live[r>>6] &^= 1 << (r & 63)
		}
		if out == in {
			if in == nev {
				break
			}
			w = ev[byStart[in]].start
		}
		for ; in < nev && ev[byStart[in]].start <= w; in++ {
			r := byStart[in]
			live[r>>6] |= 1 << (r & 63)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		row, t := int32(-1), 0
		for i, word := range live {
			for ; word != 0; word &= word - 1 {
				e := &ev[i<<6|bits.TrailingZeros64(word)]
				if e.row != row {
					// A new cycle: settle the last one.
					if err := settle(qs, written, t, res); err != nil {
						return nil, err
					}
					written = written[:0]
					row, t = e.row, w*ii+int(e.row)
					stamp++
				}
				k := w - e.win
				if e.write {
					// Writes first: a value may be written and read in the
					// same cycle (zero-length lifetime, hardware bypass),
					// but FIFO order still applies because pops always take
					// the head.
					from := l.Deps[e.idx].From
					q := &qs[e.aux]
					if q.wrote == stamp {
						return nil, fmt.Errorf("sim: cycle %d: two writes to %v queue %d (write-port conflict)", t, q.loc, q.q)
					}
					q.wrote = stamp
					if k >= 0 && (k >= n || s.Time[from]+k*ii >= t) {
						return nil, fmt.Errorf("sim: cycle %d: write of %v iteration %d before it was computed",
							t, l.Ops[from], k)
					}
					buf[q.tail] = entry{prod: int32(from), iter: k}
					q.tail++
					written = append(written, e.aux)
					continue
				}
				// Issues: pop operands, check tags, evaluate.
				id := int(e.idx)
				op := l.Ops[id]
				c := e.aux
				if fuStamp[c] != stamp {
					fuStamp[c], fuUsed[c] = stamp, 0
				}
				if fuUsed[c]++; fuUsed[c] > fuCap[c] {
					return nil, fmt.Errorf("sim: cycle %d: cluster %d issues more %v ops than units",
						t, s.Cluster[id], machine.ClassOf(op.Kind))
				}
				args = args[:0]
				for _, di := range inputs.At(id) {
					d := &l.Deps[di]
					q := &qs[qOf[di]]
					if q.read == stamp {
						return nil, fmt.Errorf("sim: cycle %d: two reads from %v queue %d (read-port conflict)", t, q.loc, q.q)
					}
					q.read = stamp
					if q.head == q.tail {
						return nil, fmt.Errorf("sim: cycle %d: %v pops empty %v queue %d", t, op, q.loc, q.q)
					}
					head := buf[q.head]
					q.head++
					want := k - d.Dist
					if int(head.prod) != d.From || head.iter != want {
						return nil, fmt.Errorf("sim: cycle %d: %v iteration %d expected value (%v,%d), FIFO delivered (%v,%d): Q-compatibility violated",
							t, op, k, l.Ops[d.From], want, l.Ops[head.prod], head.iter)
					}
					if want < 0 {
						from := l.Ops[d.From]
						args = append(args, ir.LeafValue(from.EffID(), l.OrigIter(from, want)))
					} else {
						args = append(args, vals[d.From*n+want])
					}
				}
				vals[id*n+k] = ir.Eval(op, l.OrigIter(op, k), args)
				res.Issues++
			}
		}
		if err := settle(qs, written, t, res); err != nil {
			return nil, err
		}
		written = written[:0]
	}
	if tmax >= tmin {
		res.Cycles = tmax - tmin + 1
	}
	if err := drained(qs); err != nil {
		return nil, err
	}
	return vals, nil
}

// settle checks occupancy and depth limits once cycle t has run. Only a
// write grows a queue, so the queues written in the cycle are the only
// ones whose depth can be a new maximum or break a limit.
func settle(qs []fifo, written []int32, t int, res *PipeResult) error {
	for _, qi := range written {
		q := &qs[qi]
		depth := q.tail - q.head
		res.MaxDepth = max(res.MaxDepth, depth)
		if q.limit > 0 && depth > q.limit {
			return fmt.Errorf("sim: cycle %d: %v queue %d exceeds depth %d", t, q.loc, q.q, q.limit)
		}
	}
	return nil
}

// rank puts scr.unranked in event order, returning the events by rank and
// the ranks in order of their first window. A stable counting pass on
// 2*row (a write) or 2*row+1 (an issue) keeps the writes in Deps order and
// the issues in op-ID order within a row. An LSD radix sort of the first
// windows' offsets from the earliest, one stable counting pass per byte
// the largest offset has, orders the ranks for entering; every event is
// live for the same n windows, so that is also the order they retire in.
func (scr *scratch) rank(ii int) ([]walkEvent, []int32) {
	unranked := scr.unranked
	nev := len(unranked)
	if nev == 0 {
		return nil, nil
	}
	cnt := resize(scr.cnt, 2*ii+1)
	scr.cnt = cnt
	clear(cnt)
	key := func(e *walkEvent) int32 {
		if e.write {
			return 2 * e.row
		}
		return 2*e.row + 1
	}
	lo, hi := math.MaxInt, math.MinInt
	for i := range unranked {
		e := &unranked[i]
		cnt[key(e)+1]++
		lo, hi = min(lo, e.start), max(hi, e.start)
	}
	for k := 1; k < len(cnt); k++ {
		cnt[k] += cnt[k-1]
	}
	ev := resize(scr.ev, nev)
	scr.ev = ev
	for i := range unranked {
		c := &cnt[key(&unranked[i])]
		ev[*c] = unranked[i]
		*c++
	}

	order, tmp := resize(scr.byStart, nev), resize(scr.radix, nev)
	for r := range order {
		order[r] = int32(r)
	}
	// A pass's digits run to 0xff, or to the largest offset's in the top
	// pass, which is the only pass when the first windows span fewer than
	// 256.
	var digits [257]int32
	for shift, span := uint(0), uint64(hi-lo); shift < 64 && span>>shift != 0; shift += 8 {
		digit := func(r int32) int { return int(uint64(ev[r].start-lo) >> shift & 0xff) }
		cnt := digits[:min(span>>shift, 0xff)+2]
		clear(cnt)
		for _, r := range order {
			cnt[digit(r)+1]++
		}
		for d := 1; d < len(cnt); d++ {
			cnt[d] += cnt[d-1]
		}
		for _, r := range order {
			c := &cnt[digit(r)]
			tmp[*c] = r
			*c++
		}
		order, tmp = tmp, order
	}
	scr.byStart, scr.radix = order, tmp
	return ev, order
}

// Horizon is the least iteration count from which every longer replay of s
// reaches the same verdict and error class. A run of n >= Horizon(s)
// iterations has a full window: an II-cycle window in which every op issues
// and every flow dependence writes. Past it the run repeats itself with
// every value tag one iteration later, and its drain is a shorter run's
// drain shifted by whole windows (DESIGN.md §6). Horizon is the spread of
// the first-event windows plus one. An op's first window is
// floorDiv(Time, II); a flow dependence's is floorDiv of its write base,
// Time[from]+lat(+comm), minus its distance. On a valid loop, a schedule
// that passes Schedule.Verify has Horizon <= StageCount + the largest flow
// distance. A distance or spread beyond the simulated cycle range
// saturates to math.MaxInt.
func Horizon(s *sched.Schedule) int {
	ii := s.II
	lo, hi := math.MaxInt, math.MinInt
	for _, t := range s.Time {
		w := floorDiv(t, ii)
		lo, hi = min(lo, w), max(hi, w)
	}
	for _, d := range s.Loop.Deps {
		if d.Kind != ir.Flow {
			continue
		}
		if beyondCarry(d.Dist, ii) {
			return math.MaxInt
		}
		w := floorDiv(writeBase(s, d), ii) - d.Dist
		lo, hi = min(lo, w), max(hi, w)
	}
	switch span := hi - lo; {
	case hi < lo: // no ops
		return 1
	case span < 0 || span >= maxCarry: // the subtraction wrapped, or past the cycle range
		return math.MaxInt
	default:
		return span + 1
	}
}

// writeBase is the cycle in which flow dependence d writes producer
// iteration 0: the producer's issue plus its latency, plus the ring's comm
// latency when the value crosses clusters.
func writeBase(s *sched.Schedule, d ir.Dep) int {
	wbase := s.Time[d.From] + s.Loop.Ops[d.From].Kind.Latency()
	if s.Cluster[d.From] != s.Cluster[d.To] {
		wbase += s.Machine.CommLatency
	}
	return wbase
}

// beyondCarry reports a distance whose live-in writes, dist*II cycles early,
// fall outside the simulated cycle range.
func beyondCarry(dist, ii int) bool { return dist > maxCarry/ii || dist < -maxCarry/ii }

// drained checks that every queue emptied: a non-empty queue means a value
// was produced and never consumed (allocation/schedule mismatch). Queues
// are checked in layout order, so the queue it names is deterministic.
func drained(qs []fifo) error {
	for _, q := range qs {
		if q.tail != q.head {
			return fmt.Errorf("sim: %v queue %d still holds %d values after drain", q.loc, q.q, q.tail-q.head)
		}
	}
	return nil
}

// layoutQueues gives every distinct (location, queue) pair the flow
// dependences in scr.flows use a dense ID, in (kind, from, to, queue)
// order, and returns the queues and each dependence's queue ID.
// queue.GroupByQueue, the grouping Allocation.Verify checks queues in,
// makes the dependences of one queue adjacent, so the queue's segment of
// the shared buffer starts at its first dependence's position times n.
func (scr *scratch) layoutQueues(s *sched.Schedule, alloc *queue.Allocation, n int) ([]fifo, []int32, error) {
	flows, asOf := scr.flows, scr.asOf
	qOf := resize(scr.qOf, len(asOf))
	grouped := resize(scr.grouped, len(flows))
	qs := scr.qs[:0]
	defer func() { scr.qOf, scr.grouped, scr.qs = qOf, grouped, qs }()
	for i, di := range flows {
		grouped[i] = asOf[di]
	}
	if err := queue.GroupByQueue(alloc.Assignments, grouped, grouped); err != nil {
		return nil, nil, err
	}
	var prev *queue.Assignment
	for i, ai := range grouped {
		x := &alloc.Assignments[ai]
		if prev == nil || x.Loc != prev.Loc || x.Queue != prev.Queue {
			q := fifo{loc: x.Loc, q: x.Queue, head: i * n, tail: i * n}
			switch q.loc.Kind {
			case queue.Private:
				q.limit = s.Machine.Clusters[q.loc.From].QueueDepth
			case queue.Ring:
				q.limit = s.Machine.Clusters[q.loc.To].QueueDepth
			}
			qs = append(qs, q)
		}
		// asOf names the assignment of each flow dependence, so the
		// assignment names the dependence back.
		qOf[x.Lifetime.DepIndex] = int32(len(qs) - 1)
		prev = x
	}
	return qs, qOf, nil
}

// mod is x modulo m, in [0, m) for any sign of x.
func mod(x, m int) int {
	return (x%m + m) % m
}

// floorDiv is x divided by m, rounded down, for m > 0.
func floorDiv(x, m int) int {
	return (x - mod(x, m)) / m
}

// maxCarry bounds |Dist*II| of a flow dependence: with live-in writes at
// most that many cycles early, every cycle, window and span the run
// computes stays far inside the int range.
const maxCarry = math.MaxInt / 4
