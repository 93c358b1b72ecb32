package sim

import (
	"context"
	"fmt"
	"math"
	"slices"

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
	// AllowMultiWrite permits an ordinary operation to write more than one
	// queue in the same cycle. This models the paper's Fig. 1(c) baseline
	// (multi-consumer values without copy operations, needing simultaneous
	// writes); with copy insertion in the pipeline it should stay false so
	// the simulator enforces the single-write property.
	AllowMultiWrite bool
}

// PipeResult is the outcome of a pipelined execution.
type PipeResult struct {
	Cycles   int // cycles from first event to pipeline drain
	Issues   int // operation instances issued
	Stores   map[StoreKey]int64
	MaxDepth int // deepest queue occupancy observed
}

// Pipelined executes n iterations of the modulo schedule on a cycle-level
// model of the queue-register-file machine. Every queue pop checks that
// FIFO order delivers the exact (producer, iteration) instance the
// dependence requires.
func Pipelined(s *sched.Schedule, alloc *queue.Allocation, opt PipeOptions) (*PipeResult, error) {
	n := opt.N
	if n <= 0 {
		n = s.Loop.TripCount()
	}
	res := &PipeResult{Stores: map[StoreKey]int64{}}
	if _, err := pipelined(context.Background(), s, alloc, n, opt.AllowMultiWrite, res); err != nil {
		return nil, err
	}
	return res, nil
}

// VerifyPipeline runs both executions and compares their stores. It is the
// end-to-end check the compile engine runs, for min(trip, 64, Horizon(s))
// iterations unless told otherwise. Both runs execute the same loop for the
// same n, so their store instances pair up one to one by (op, body
// iteration) and are compared directly, without building either side's
// Stores map. The pipelined run checks ctx once per II-cycle window and
// returns ctx.Err() as soon as it is non-nil.
func VerifyPipeline(ctx context.Context, s *sched.Schedule, alloc *queue.Allocation, n int) error {
	if n <= 0 {
		n = s.Loop.TripCount()
	}
	l := s.Loop
	want, err := reference(l, n, nil)
	if err != nil {
		return err
	}
	got, err := pipelined(ctx, s, alloc, n, false, &PipeResult{})
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

// pipelined is the dense pipelined execution behind Pipelined and
// VerifyPipeline. It walks the cycles that can hold an event and, at cycle
// t, visits only the ops and flow dependences whose issue or write cycles
// are congruent to t modulo II (one list per modulo row): first all writes
// in Deps order, then all issues in op-ID order, each popping its operands
// in FlowInputs order. That is the event order of the map-based oracle the
// tests diff it against, so both name the same event in every error.
// Values live in one flat [op*n+k] slice, which it returns. res receives
// Cycles, Issues and MaxDepth, and each store instance when res.Stores is
// non-nil. ctx is checked once per visited window, and by the
// allocation's Verify once per queue.
func pipelined(ctx context.Context, s *sched.Schedule, alloc *queue.Allocation, n int, allowMultiWrite bool, res *PipeResult) ([]int64, error) {
	l := s.Loop
	if err := s.Verify(); err != nil {
		return nil, err
	}
	if err := alloc.Verify(ctx); err != nil {
		return nil, err
	}

	// Static check: without multi-write support, only copy operations may
	// feed two queues; everything else must have fanout <= 1.
	if !allowMultiWrite {
		fan := make([]int, len(l.Ops))
		for _, d := range l.Deps {
			if d.Kind == ir.Flow {
				fan[d.From]++
			}
		}
		for id, op := range l.Ops {
			limit := 1
			if op.Kind == ir.KCopy {
				limit = 2
			}
			if fan[id] > limit {
				return nil, fmt.Errorf("sim: %v has fanout %d: value needs %d simultaneous writes (run copy insertion or set AllowMultiWrite)",
					op, fan[id], fan[id])
			}
		}
	}

	// Queue of every flow dependence: the last assignment naming it wins,
	// as an index-keyed lookup would.
	asOf := make([]int32, len(l.Deps))
	for i := range asOf {
		asOf[i] = -1
	}
	for i, as := range alloc.Assignments {
		if di := as.Lifetime.DepIndex; di >= 0 && di < len(l.Deps) {
			asOf[di] = int32(i)
		}
	}
	var flows []int32
	for di, d := range l.Deps {
		if d.Kind != ir.Flow {
			continue
		}
		if asOf[di] < 0 {
			return nil, fmt.Errorf("sim: dependence %v (index %d) has no queue assignment", d, di)
		}
		flows = append(flows, int32(di))
	}
	qs, qOf := layoutQueues(s, alloc, asOf, flows, n)
	buf := make([]entry, len(flows)*n)

	// The timeline. An op issues instance k at Time+k*II for k in [0,n); a
	// flow dependence of distance d writes producer iteration k at
	// wbase+k*II for k in [-d, n-d), where wbase = Time[from]+lat(+comm),
	// so its first d live-in writes can fall before cycle 0, and a long
	// distance or comm latency leaves stretches of cycles with no event.
	// Either way every op and flow dependence has one event in each of n
	// consecutive II-cycle windows, starting at the window of its first
	// event.
	ii := s.II
	starts := make([]int, 0, len(l.Ops)+len(flows)) // window of each one's first event
	tmin, tmax := math.MaxInt, math.MinInt
	span := func(first int) {
		starts = append(starts, floorDiv(first, ii))
		tmin, tmax = min(tmin, first), max(tmax, first+(n-1)*ii)
	}
	// An op issues in row issueRow and, in window w, issues instance
	// w-issueWin; a flow dependence writes in row writeRow and, in window
	// w, writes producer iteration w-writeWin.
	issueRow, issueWin := make([]int32, len(l.Ops)), make([]int, len(l.Ops))
	for id := range l.Ops {
		t := s.Time[id]
		issueRow[id], issueWin[id] = int32(mod(t, ii)), floorDiv(t, ii)
		span(t)
	}
	writeRow, writeWin := make([]int32, len(l.Deps)), make([]int, len(l.Deps))
	for di, d := range l.Deps {
		writeRow[di] = -1
		if d.Kind != ir.Flow {
			continue
		}
		wbase := writeBase(s, d)
		// Keep d*II, and so every cycle of the run, far from overflow.
		if beyondCarry(d.Dist, ii) {
			return nil, fmt.Errorf("sim: dependence %v: distance %d at II %d is beyond the simulated cycle range", d, d.Dist, ii)
		}
		writeRow[di], writeWin[di] = int32(mod(wbase, ii)), floorDiv(wbase, ii)
		span(wbase - d.Dist*ii)
	}
	slices.Sort(starts)
	issues := groupBy(ii, issueRow)
	writes := groupBy(ii, writeRow)
	rows := make([]int32, 0, ii) // the rows some op issues in or some dependence writes in
	for r := 0; r < ii; r++ {
		if len(issues.at(r)) > 0 || len(writes.at(r)) > 0 {
			rows = append(rows, int32(r))
		}
	}
	inputs := flowInputs(l)
	// FU slots are (cluster, class) pairs, counted per cycle.
	const classes = int(machine.NumClasses)
	slot := make([]int, len(l.Ops))
	for id, op := range l.Ops {
		slot[id] = s.Cluster[id]*classes + int(machine.ClassOf(op.Kind))
	}
	fuCap := make([]int, s.Machine.NumClusters()*classes)
	for cl, c := range s.Machine.Clusters {
		copy(fuCap[cl*classes:], c.FUs[:])
	}
	fuStamp := make([]int, len(fuCap))
	fuUsed := make([]int, len(fuCap))
	vals := make([]int64, len(l.Ops)*n)
	args := make([]int64, 0, 2)
	written := make([]int32, 0, len(qs))

	// The run visits only windows that hold an event, and in them only the
	// rows some op or dependence uses, so its cost follows the number of
	// windows with events times the rows in use, never the span from first
	// to last. hi is the last window of the ops and dependences started so
	// far and next the first one not yet started; past hi the run jumps to
	// next's first window. stamp numbers the visited cycles from 1, so a
	// zero port or FU stamp means "never used".
	stamp := 0
	for w, hi, next := 0, math.MinInt, 0; next < len(starts) || w <= hi; w++ {
		if w > hi {
			w = starts[next]
		}
		for ; next < len(starts) && starts[next] <= w; next++ {
			hi = max(hi, starts[next]+n-1)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, row := range rows {
			t := w*ii + int(row)
			stamp++
			// Writes first: a value may be written and read in the same
			// cycle (zero-length lifetime, hardware bypass), but FIFO order
			// still applies because pops always take the head.
			written = written[:0]
			for _, di := range writes.at(int(row)) {
				d := l.Deps[di]
				k := w - writeWin[di]
				if k < -d.Dist || k >= n-d.Dist {
					continue
				}
				qi := qOf[di]
				q := &qs[qi]
				if q.wrote == stamp {
					return nil, fmt.Errorf("sim: cycle %d: two writes to %v queue %d (write-port conflict)", t, q.loc, q.q)
				}
				q.wrote = stamp
				if k >= 0 && (k >= n || s.Time[d.From]+k*ii >= t) {
					return nil, fmt.Errorf("sim: cycle %d: write of %v iteration %d before it was computed",
						t, l.Ops[d.From], k)
				}
				buf[q.tail] = entry{prod: int32(d.From), iter: k}
				q.tail++
				written = append(written, qi)
			}
			// Issues: pop operands, check tags, evaluate.
			for _, id := range issues.at(int(row)) {
				k := w - issueWin[id]
				if k < 0 || k >= n {
					continue
				}
				op := l.Ops[id]
				c := slot[id]
				if fuStamp[c] != stamp {
					fuStamp[c], fuUsed[c] = stamp, 0
				}
				if fuUsed[c]++; fuUsed[c] > fuCap[c] {
					return nil, fmt.Errorf("sim: cycle %d: cluster %d issues more %v ops than units",
						t, s.Cluster[id], machine.ClassOf(op.Kind))
				}
				args = args[:0]
				for _, di := range inputs.at(int(id)) {
					d := l.Deps[di]
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
				v := ir.Eval(op, l.OrigIter(op, k), args)
				vals[int(id)*n+k] = v
				res.Issues++
				if res.Stores != nil && op.Kind == ir.KStore {
					res.Stores[StoreKey{op.EffID(), l.OrigIter(op, k)}] = v
				}
			}
			// Occupancy accounting and depth limits, after the cycle
			// settles. Only a write grows a queue, so the queues written
			// this cycle are the only ones whose depth can be a new maximum
			// or break a limit.
			for _, qi := range written {
				q := &qs[qi]
				depth := q.tail - q.head
				res.MaxDepth = max(res.MaxDepth, depth)
				if q.limit > 0 && depth > q.limit {
					return nil, fmt.Errorf("sim: cycle %d: %v queue %d exceeds depth %d", t, q.loc, q.q, q.limit)
				}
			}
		}
	}
	if tmax >= tmin {
		res.Cycles = tmax - tmin + 1
	}
	if err := drained(qs); err != nil {
		return nil, err
	}
	return vals, nil
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
// dependences use a dense ID, in queue.CompareQueues order, and returns the
// queues and each dependence's queue ID. Sorted that way, the dependences
// of one queue are adjacent, so the queue's segment of the shared buffer
// starts at its first dependence's position times n.
func layoutQueues(s *sched.Schedule, alloc *queue.Allocation, asOf, flows []int32, n int) ([]fifo, []int32) {
	as := func(di int32) *queue.Assignment { return &alloc.Assignments[asOf[di]] }
	byQueue := slices.Clone(flows)
	slices.SortFunc(byQueue, func(x, y int32) int { return queue.CompareQueues(as(x), as(y)) })
	qOf := make([]int32, len(asOf))
	var qs []fifo
	for i, di := range byQueue {
		if i == 0 || queue.CompareQueues(as(byQueue[i-1]), as(di)) != 0 {
			q := fifo{loc: as(di).Loc, q: as(di).Queue, head: i * n, tail: i * n}
			switch q.loc.Kind {
			case queue.Private:
				q.limit = s.Machine.Clusters[q.loc.From].QueueDepth
			case queue.Ring:
				q.limit = s.Machine.Clusters[q.loc.To].QueueDepth
			}
			qs = append(qs, q)
		}
		qOf[di] = int32(len(qs) - 1)
	}
	return qs, qOf
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
