package sim

// The test oracles the dense code is diffed against: the map-based
// pipelined simulator and the sequential reference that pipe.go and ref.go
// replaced, and the map-based Schedule.Verify and Allocation.Verify. They
// are slow and allocate per cycle; nothing outside the tests runs them.

import (
	"fmt"
	"sort"

	"vliwq/internal/ir"
	"vliwq/internal/machine"
	"vliwq/internal/queue"
	"vliwq/internal/sched"
)

// oracleReference is the sequential reference with per-op FlowInputs scans
// and a slice per op.
func oracleReference(l *ir.Loop, n int) (*Ref, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	order, err := l.TopoOrder()
	if err != nil {
		return nil, err
	}
	inputs := make([][]ir.Dep, len(l.Ops))
	for id := range l.Ops {
		inputs[id] = l.FlowInputs(l.Ops[id])
	}
	r := &Ref{
		Loop:   l,
		N:      n,
		Values: make([][]int64, len(l.Ops)),
		Stores: make(map[StoreKey]int64),
	}
	for id := range l.Ops {
		r.Values[id] = make([]int64, n)
	}
	value := func(opID, k int) int64 {
		if k < 0 {
			op := l.Ops[opID]
			return ir.LeafValue(op.EffID(), l.OrigIter(op, k))
		}
		return r.Values[opID][k]
	}
	var args []int64
	for k := 0; k < n; k++ {
		for _, id := range order {
			op := l.Ops[id]
			args = args[:0]
			for _, d := range inputs[id] {
				args = append(args, value(d.From, k-d.Dist))
			}
			v := ir.Eval(op, l.OrigIter(op, k), args)
			r.Values[id][k] = v
			if op.Kind == ir.KStore {
				r.Stores[StoreKey{op.EffID(), l.OrigIter(op, k)}] = v
			}
		}
	}
	return r, nil
}

// oracleScheduleVerify is the map-based Schedule.Verify.
func oracleScheduleVerify(s *sched.Schedule) error {
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
		if d.Kind == ir.Flow && s.Cluster[d.From] != s.Cluster[d.To] {
			lat += s.Machine.CommLatency
		}
		slack := s.Time[d.To] + s.II*d.Dist - (s.Time[d.From] + lat)
		if slack < 0 {
			return fmt.Errorf("sched: dependence violated: %v (slack %d)", d, slack)
		}
	}
	// Resources: at most FUs[class] issues per (cluster, class, row).
	type key struct {
		row, cluster int
		class        machine.FUClass
	}
	used := map[key]int{}
	for id, op := range l.Ops {
		k := key{s.Time[id] % s.II, s.Cluster[id], machine.ClassOf(op.Kind)}
		used[k]++
		if used[k] > s.Machine.FUCount(k.cluster, k.class) {
			return fmt.Errorf("sched: row %d cluster %d oversubscribes %v", k.row, k.cluster, k.class)
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

// oracleAllocVerify is the map-based Allocation.Verify. With several
// incompatible queues it names whichever the map yields first.
func oracleAllocVerify(a *queue.Allocation) error {
	type qkey struct {
		loc queue.Location
		q   int
	}
	groups := map[qkey][]queue.Lifetime{}
	for _, as := range a.Assignments {
		k := qkey{as.Loc, as.Queue}
		groups[k] = append(groups[k], as.Lifetime)
	}
	for k, lts := range groups {
		if !queue.CompatibleSet(lts, a.II) {
			return fmt.Errorf("queue: %v queue %d holds incompatible lifetimes", k.loc, k.q)
		}
	}
	return nil
}

type tagged struct {
	prod int // producer op ID
	iter int // producer body-iteration (negative = live-in)
	val  int64
}

type qid struct {
	loc queue.Location
	q   int
}

type event struct {
	write bool
	// writes
	q     qid
	dep   ir.Dep
	depIx int
	prodK int
	// issues
	op int
	k  int
}

// oraclePipelined is the map-based simulator Pipelined replaced, kept
// verbatim except that it starts with the map versions of the two checks
// below instead of Schedule.Verify and Allocation.Verify.
func oraclePipelined(s *sched.Schedule, alloc *queue.Allocation, opt PipeOptions) (*PipeResult, error) {
	l := s.Loop
	if err := oracleScheduleVerify(s); err != nil {
		return nil, err
	}
	if err := oracleAllocVerify(alloc); err != nil {
		return nil, err
	}
	n := opt.N
	if n <= 0 {
		n = l.TripCount()
	}

	// Map dependence index -> queue assignment.
	byDep := make(map[int]queue.Assignment, len(alloc.Assignments))
	for _, as := range alloc.Assignments {
		byDep[as.Lifetime.DepIndex] = as
	}

	// Static check: without multi-write support, only copy operations may
	// feed two queues; everything else must have fanout <= 1.
	if !opt.AllowMultiWrite {
		for id, op := range l.Ops {
			fan := l.Fanout(op)
			limit := 1
			if op.Kind == ir.KCopy {
				limit = 2
			}
			if fan > limit {
				return nil, fmt.Errorf("sim: %v has fanout %d: value needs %d simultaneous writes (run copy insertion or set AllowMultiWrite)",
					l.Ops[id], fan, fan)
			}
		}
	}

	// Build the event timeline.
	events := map[int][]event{}
	addEvent := func(t int, e event) { events[t] = append(events[t], e) }
	for id, op := range l.Ops {
		for k := 0; k < n; k++ {
			addEvent(s.Time[id]+k*s.II, event{op: id, k: k})
		}
		_ = op
	}
	for di, d := range l.Deps {
		if d.Kind != ir.Flow {
			continue
		}
		as, ok := byDep[di]
		if !ok {
			return nil, fmt.Errorf("sim: dependence %v (index %d) has no queue assignment", d, di)
		}
		lat := l.Ops[d.From].Kind.Latency()
		comm := 0
		if s.Cluster[d.From] != s.Cluster[d.To] {
			comm = s.Machine.CommLatency
		}
		for k := -d.Dist; k < n-d.Dist; k++ {
			t := s.Time[d.From] + lat + comm + k*s.II
			addEvent(t, event{write: true, q: qid{as.Loc, as.Queue}, dep: d, depIx: di, prodK: k})
		}
	}
	cycles := make([]int, 0, len(events))
	for t := range events {
		cycles = append(cycles, t)
	}
	sort.Ints(cycles)

	// Execute.
	type instKey struct{ op, k int }
	values := map[instKey]int64{}
	queues := map[qid][]tagged{}
	res := &PipeResult{Stores: map[StoreKey]int64{}}
	inputs := make([][]int, len(l.Ops)) // flow-input dep indices per op
	for di, d := range l.Deps {
		if d.Kind == ir.Flow {
			inputs[d.To] = append(inputs[d.To], di)
		}
	}

	var args []int64
	for _, t := range cycles {
		evs := events[t]
		// Writes first: a value may be written and read in the same cycle
		// (zero-length lifetime, hardware bypass), but FIFO order still
		// applies because pops always take the head.
		wrote := map[qid]int{}
		for _, e := range evs {
			if !e.write {
				continue
			}
			wrote[e.q]++
			if wrote[e.q] > 1 {
				return nil, fmt.Errorf("sim: cycle %d: two writes to %v queue %d (write-port conflict)", t, e.q.loc, e.q.q)
			}
			var v int64
			if e.prodK < 0 {
				op := l.Ops[e.dep.From]
				v = ir.LeafValue(op.EffID(), l.OrigIter(op, e.prodK))
			} else {
				var ok bool
				v, ok = values[instKey{e.dep.From, e.prodK}]
				if !ok {
					return nil, fmt.Errorf("sim: cycle %d: write of %v iteration %d before it was computed",
						t, l.Ops[e.dep.From], e.prodK)
				}
			}
			queues[e.q] = append(queues[e.q], tagged{prod: e.dep.From, iter: e.prodK, val: v})
		}
		// Issues: pop operands, check tags, evaluate.
		read := map[qid]int{}
		var busy [machine.NumClasses]map[int]int // per class: cluster -> issues
		for _, e := range evs {
			if e.write {
				continue
			}
			op := l.Ops[e.op]
			cl := s.Cluster[e.op]
			class := machine.ClassOf(op.Kind)
			if busy[class] == nil {
				busy[class] = map[int]int{}
			}
			busy[class][cl]++
			if busy[class][cl] > s.Machine.FUCount(cl, class) {
				return nil, fmt.Errorf("sim: cycle %d: cluster %d issues more %v ops than units", t, cl, class)
			}
			args = args[:0]
			for _, di := range inputs[e.op] {
				d := l.Deps[di]
				as := byDep[di]
				q := qid{as.Loc, as.Queue}
				read[q]++
				if read[q] > 1 {
					return nil, fmt.Errorf("sim: cycle %d: two reads from %v queue %d (read-port conflict)", t, q.loc, q.q)
				}
				fifo := queues[q]
				if len(fifo) == 0 {
					return nil, fmt.Errorf("sim: cycle %d: %v pops empty %v queue %d", t, op, q.loc, q.q)
				}
				head := fifo[0]
				queues[q] = fifo[1:]
				wantIter := e.k - d.Dist
				if head.prod != d.From || head.iter != wantIter {
					return nil, fmt.Errorf("sim: cycle %d: %v iteration %d expected value (%v,%d), FIFO delivered (%v,%d): Q-compatibility violated",
						t, op, e.k, l.Ops[d.From], wantIter, l.Ops[head.prod], head.iter)
				}
				args = append(args, head.val)
			}
			v := ir.Eval(op, l.OrigIter(op, e.k), args)
			values[instKey{e.op, e.k}] = v
			res.Issues++
			if op.Kind == ir.KStore {
				res.Stores[StoreKey{op.EffID(), l.OrigIter(op, e.k)}] = v
			}
		}
		// Occupancy accounting and depth limits, after the cycle settles.
		for q, fifo := range queues {
			if len(fifo) > res.MaxDepth {
				res.MaxDepth = len(fifo)
			}
			depth := 0
			switch q.loc.Kind {
			case queue.Private:
				depth = s.Machine.Clusters[q.loc.From].QueueDepth
			case queue.Ring:
				depth = s.Machine.Clusters[q.loc.To].QueueDepth
			}
			if depth > 0 && len(fifo) > depth {
				return nil, fmt.Errorf("sim: cycle %d: %v queue %d exceeds depth %d", t, q.loc, q.q, depth)
			}
		}
	}
	if len(cycles) > 0 {
		res.Cycles = cycles[len(cycles)-1] - cycles[0] + 1
	}
	// Every queue must drain: a non-empty queue means a value was produced
	// and never consumed (allocation/schedule mismatch).
	for q, fifo := range queues {
		if len(fifo) != 0 {
			return nil, fmt.Errorf("sim: %v queue %d still holds %d values after drain", q.loc, q.q, len(fifo))
		}
	}
	return res, nil
}
