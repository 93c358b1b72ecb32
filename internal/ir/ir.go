// Package ir defines the loop intermediate representation used throughout
// vliwq: operations, data-dependence graphs with loop-carried distances, and
// helpers to build, validate and inspect innermost loops.
//
// A Loop models the body of an innermost loop as a set of operations and a
// set of dependences. Each dependence carries an iteration distance: a
// distance of 0 is an intra-iteration dependence, a distance of d > 0 means
// the consumer in iteration k uses the value produced in iteration k-d
// (a loop-carried dependence). Cycles in the dependence graph must have a
// total distance of at least one; they are the recurrence circuits that
// bound the initiation interval of any modulo schedule.
package ir

import (
	"fmt"
	"sort"
)

// OpKind identifies the operation class. The class determines both the
// functional unit that executes the operation and its latency.
type OpKind uint8

// Operation kinds. KAdd stands in for the whole single-cycle ALU class
// (add, subtract, logical, compare); KDiv executes on the multiplier unit
// with a long latency, as in classic VLIW models.
const (
	KInvalid OpKind = iota
	KLoad           // memory load, executes on the L/S unit
	KStore          // memory store, executes on the L/S unit
	KAdd            // single-cycle ALU operation
	KMul            // multiply
	KDiv            // divide (multiplier unit, long latency)
	KCopy           // queue copy: read one queue, write up to two
	KMove           // inter-cluster move (extension, §5 of the paper)
	numKinds
)

var kindNames = [...]string{
	KInvalid: "invalid",
	KLoad:    "load",
	KStore:   "store",
	KAdd:     "add",
	KMul:     "mul",
	KDiv:     "div",
	KCopy:    "copy",
	KMove:    "move",
}

func (k OpKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Valid reports whether k is a concrete operation kind.
func (k OpKind) Valid() bool { return k > KInvalid && k < numKinds }

// Latency returns the number of cycles between issuing an operation of this
// kind and its result becoming available. The values follow the classic
// latencies used in the iterative-modulo-scheduling literature; the paper
// does not publish its own table (see DESIGN.md §4).
func (k OpKind) Latency() int {
	switch k {
	case KLoad:
		return 2
	case KStore:
		return 1
	case KAdd:
		return 1
	case KMul:
		return 2
	case KDiv:
		return 8
	case KCopy:
		return 1
	case KMove:
		return 1
	}
	return 0
}

// HasResult reports whether operations of this kind produce a value that
// must be stored in a register or queue.
func (k OpKind) HasResult() bool { return k != KStore && k.Valid() }

// MaxInputs returns the maximum number of value operands an operation of
// this kind may read.
func (k OpKind) MaxInputs() int {
	switch k {
	case KLoad:
		return 1 // optional address operand
	case KStore:
		return 2 // value and optional address operand
	case KCopy, KMove:
		return 1
	default:
		return 2
	}
}

// Op is a single operation inside a loop body.
type Op struct {
	ID   int    // dense index into Loop.Ops
	Kind OpKind // operation class
	Name string // optional human-readable name (unique when set)

	// Orig and Phase track lineage through the unrolling pass so that a
	// replica computes exactly the same function of the iteration space as
	// the operation it was cloned from: Orig is the op ID in the
	// pre-unrolling loop (-1 for ops that were never replicated) and Phase
	// is the replica index within the unrolled body. Simulation maps the
	// instance (op, k) of an unrolled loop to original iteration
	// k*UnrollFactor + Phase.
	Orig  int
	Phase int
}

// EffID returns the identity used for operation semantics: the original op
// ID for unrolled replicas, the op's own ID otherwise.
func (o *Op) EffID() int {
	if o.Orig >= 0 {
		return o.Orig
	}
	return o.ID
}

func (o *Op) String() string {
	if o.Name != "" {
		return fmt.Sprintf("%s#%d(%s)", o.Kind, o.ID, o.Name)
	}
	return fmt.Sprintf("%s#%d", o.Kind, o.ID)
}

// DepKind classifies a dependence edge.
type DepKind uint8

const (
	// Flow is a true (read-after-write) dependence: the consumer reads the
	// value produced by the producer. Only flow dependences occupy queues
	// or registers.
	Flow DepKind = iota
	// Mem is a memory-ordering dependence (store/load aliasing); it
	// constrains the schedule but carries no value.
	Mem
	// Order is a generic ordering edge (anti/output); like Mem it carries
	// no value.
	Order
)

func (k DepKind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Mem:
		return "mem"
	case Order:
		return "order"
	}
	return fmt.Sprintf("DepKind(%d)", uint8(k))
}

// Dep is a dependence edge between two operations. For a flow dependence,
// the consumer's instance in iteration k reads the value produced by the
// producer's instance in iteration k-Dist.
type Dep struct {
	From int     // producer op ID
	To   int     // consumer op ID
	Dist int     // iteration distance (omega); 0 = same iteration
	Kind DepKind // flow, mem or order
}

func (d Dep) String() string {
	return fmt.Sprintf("%d->%d dist=%d %s", d.From, d.To, d.Dist, d.Kind)
}

// Loop is the body of an innermost loop: operations plus dependences.
type Loop struct {
	Name string
	Ops  []*Op
	Deps []Dep
	// Trip is the iteration count assumed for dynamic metrics and for the
	// simulator. Zero means DefaultTrip.
	Trip int
	// Unroll is the unroll factor this body was produced with (0 or 1 for
	// a natural body). One iteration of an unrolled body covers Unroll
	// iterations of the original loop.
	Unroll int
}

// UnrollFactor returns the effective unroll factor (at least 1).
func (l *Loop) UnrollFactor() int {
	if l.Unroll > 1 {
		return l.Unroll
	}
	return 1
}

// OrigIter maps iteration k of this (possibly unrolled) body and an op to
// the iteration of the original loop that the op instance computes.
func (l *Loop) OrigIter(op *Op, k int) int {
	return k*l.UnrollFactor() + op.Phase
}

// DefaultTrip is the iteration count assumed when Loop.Trip is zero.
const DefaultTrip = 100

// TripCount returns the effective iteration count.
func (l *Loop) TripCount() int {
	if l.Trip > 0 {
		return l.Trip
	}
	return DefaultTrip
}

// New returns an empty loop with the given name.
func New(name string) *Loop { return &Loop{Name: name} }

// AddOp appends a new operation of the given kind and returns it.
func (l *Loop) AddOp(kind OpKind, name string) *Op {
	op := &Op{ID: len(l.Ops), Kind: kind, Name: name, Orig: -1}
	l.Ops = append(l.Ops, op)
	return op
}

// AddDep appends a dependence edge.
func (l *Loop) AddDep(d Dep) { l.Deps = append(l.Deps, d) }

// AddFlow appends an intra-iteration flow dependence from producer to
// consumer.
func (l *Loop) AddFlow(from, to *Op) { l.AddDep(Dep{From: from.ID, To: to.ID, Kind: Flow}) }

// AddCarried appends a loop-carried flow dependence with distance dist.
func (l *Loop) AddCarried(from, to *Op, dist int) {
	l.AddDep(Dep{From: from.ID, To: to.ID, Dist: dist, Kind: Flow})
}

// Clone returns a deep copy of the loop. The copied ops share one backing
// array.
func (l *Loop) Clone() *Loop {
	c, _ := l.CloneWithRoom(0, 0)
	return c
}

// CloneWithRoom is Clone for a pass that grows the copy: the copy's Ops and
// Deps have spare capacity for extraOps more ops and extraDeps more
// dependences, and spare holds extraOps zeroed ops in the copied ops'
// backing array, for the pass to fill and append. A pass that adds no more
// than that allocates nothing more.
func (l *Loop) CloneWithRoom(extraOps, extraDeps int) (c *Loop, spare []Op) {
	n := len(l.Ops)
	c = &Loop{Name: l.Name, Trip: l.Trip, Unroll: l.Unroll}
	ops := make([]Op, n+extraOps)
	c.Ops = make([]*Op, n, n+extraOps)
	for i, op := range l.Ops {
		ops[i] = *op
		c.Ops[i] = &ops[i]
	}
	c.Deps = make([]Dep, len(l.Deps), len(l.Deps)+extraDeps)
	copy(c.Deps, l.Deps)
	return c, ops[n:]
}

// FlowInputs returns the flow dependences feeding op, in the order they
// appear in l.Deps. This order defines the operand order everywhere
// (scheduling, allocation and simulation agree on it).
func (l *Loop) FlowInputs(op *Op) []Dep {
	var in []Dep
	for _, d := range l.Deps {
		if d.To == op.ID && d.Kind == Flow {
			in = append(in, d)
		}
	}
	return in
}

// FlowOutputs returns the flow dependences produced by op, in Deps order.
func (l *Loop) FlowOutputs(op *Op) []Dep {
	var out []Dep
	for _, d := range l.Deps {
		if d.From == op.ID && d.Kind == Flow {
			out = append(out, d)
		}
	}
	return out
}

// Fanout returns the number of flow dependences leaving op (the number of
// times its value is consumed per iteration).
func (l *Loop) Fanout(op *Op) int {
	n := 0
	for _, d := range l.Deps {
		if d.From == op.ID && d.Kind == Flow {
			n++
		}
	}
	return n
}

// MaxFanout returns the largest fanout of any value in the loop.
func (l *Loop) MaxFanout() int {
	max := 0
	for _, op := range l.Ops {
		if f := l.Fanout(op); f > max {
			max = f
		}
	}
	return max
}

// Adj is a compressed sparse row (CSR) adjacency view of a loop's
// dependence edges: one flat offset array plus one backing edge array,
// instead of a slice-of-slices. Per-op edge lists preserve Deps order.
// The view is a snapshot — it does not track later loop mutations.
type Adj struct {
	off  []int32
	deps []Dep
}

// At returns the edges of op id. The returned slice aliases the CSR backing
// array and must not be appended to or retained across a rebuild.
func (a *Adj) At(id int) []Dep {
	return a.deps[a.off[id]:a.off[id+1]]
}

// Len returns the number of ops the view covers.
func (a *Adj) Len() int { return len(a.off) - 1 }

// Preds returns a CSR view of the dependences entering each op.
func (l *Loop) Preds() Adj {
	var a Adj
	l.PredsInto(&a)
	return a
}

// Succs returns a CSR view of the dependences leaving each op.
func (l *Loop) Succs() Adj {
	var a Adj
	l.SuccsInto(&a)
	return a
}

// PredsInto rebuilds a as the predecessor view, reusing its storage.
func (l *Loop) PredsInto(a *Adj) { l.adjInto(a, false) }

// SuccsInto rebuilds a as the successor view, reusing its storage.
func (l *Loop) SuccsInto(a *Adj) { l.adjInto(a, true) }

func (l *Loop) adjInto(a *Adj, bySource bool) {
	n := len(l.Ops)
	if cap(a.off) < n+1 {
		a.off = make([]int32, n+1)
	} else {
		a.off = a.off[:n+1]
		for i := range a.off {
			a.off[i] = 0
		}
	}
	if cap(a.deps) < len(l.Deps) {
		a.deps = make([]Dep, len(l.Deps))
	} else {
		a.deps = a.deps[:len(l.Deps)]
	}
	key := func(d Dep) int {
		if bySource {
			return d.From
		}
		return d.To
	}
	// Counting sort: bucket counts, prefix-sum to starts, stable fill (the
	// cursor pass turns starts into ends), then shift ends back to offsets.
	for _, d := range l.Deps {
		a.off[key(d)+1]++
	}
	for i := 1; i <= n; i++ {
		a.off[i] += a.off[i-1]
	}
	for _, d := range l.Deps {
		k := key(d)
		a.deps[a.off[k]] = d
		a.off[k]++
	}
	for i := n; i > 0; i-- {
		a.off[i] = a.off[i-1]
	}
	a.off[0] = 0
}

// SumLatency returns the sum of all operation latencies; it is a safe upper
// bound for any achievable II.
func (l *Loop) SumLatency() int {
	sum := 0
	for _, op := range l.Ops {
		sum += op.Kind.Latency()
	}
	return sum
}

// TopoOrder returns the op IDs in a topological order of the
// zero-distance subgraph. It returns an error if the zero-distance subgraph
// contains a cycle (which would make the loop unexecutable). The successor
// lists live in one flat CSR array rather than a slice per op, keeping the
// check cheap on the scheduling hot path.
func (l *Loop) TopoOrder() ([]int, error) {
	n := len(l.Ops)
	indeg := make([]int, n)
	off := make([]int32, n+1)
	for _, d := range l.Deps {
		if d.Dist == 0 {
			off[d.From+1]++
			indeg[d.To]++
		}
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	flat := make([]int32, off[n])
	for _, d := range l.Deps {
		if d.Dist == 0 {
			flat[off[d.From]] = int32(d.To)
			off[d.From]++
		}
	}
	for i := n; i > 0; i-- {
		off[i] = off[i-1]
	}
	off[0] = 0
	// Deterministic order: smallest ready ID first.
	ready := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	sort.Ints(ready)
	order := make([]int, 0, n)
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		order = append(order, id)
		inserted := false
		for _, s := range flat[off[id]:off[id+1]] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, int(s))
				inserted = true
			}
		}
		if inserted {
			sort.Ints(ready)
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("ir: loop %q has a zero-distance dependence cycle", l.Name)
	}
	return order, nil
}
