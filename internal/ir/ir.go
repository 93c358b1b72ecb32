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

import "fmt"

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
// appear in l.Deps: op's operands, in the order ir.Eval reads them. It
// scans every dependence; a pass that walks many ops' operands reads one
// IndexDeps(FlowDeps) index instead.
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
	var out DepIndex
	l.IndexDeps(&out, FlowDeps, true)
	most := 0
	for id := range l.Ops {
		most = max(most, len(out.At(id)))
	}
	return most
}

// DepSet selects the dependences a DepIndex lists.
type DepSet uint8

const (
	AllDeps      DepSet = iota // every dependence
	FlowDeps                   // flow dependences: the values ops read
	ZeroDistDeps               // distance-zero dependences: the order inside an iteration
)

// has reports whether d belongs to the set.
func (s DepSet) has(d *Dep) bool {
	switch s {
	case FlowDeps:
		return d.Kind == Flow
	case ZeroDistDeps:
		return d.Dist == 0
	}
	return true
}

// DepIndex groups one set of a loop's dependences by operation: At(id)
// lists the positions in Loop.Deps of the set's dependences entering op
// id, or leaving it, in Deps order. It is one offset array plus one array
// of dependence indices, the layout every pass that walks dependences op
// by op reads: operands, consumers, predecessors and successors. An index
// is a snapshot; it does not follow later changes to the loop.
type DepIndex struct {
	off []int32 // op id's list is dep[off[id]:off[id+1]]
	dep []int32
}

// At returns the dependence indices listed under op id. The slice aliases
// the index's storage: it must not be appended to or kept across a
// rebuild.
func (x *DepIndex) At(id int) []int32 { return x.dep[x.off[id]:x.off[id+1]] }

// IndexDeps rebuilds x over the dependences of set, each listed under its
// producer when byFrom is set and under its consumer otherwise, reusing
// x's storage: once x has held a loop as large, a rebuild allocates
// nothing. Every endpoint must be an op of l, as Validate checks.
func (l *Loop) IndexDeps(x *DepIndex, set DepSet, byFrom bool) {
	deps, n := l.Deps, len(l.Ops)
	off := resize(x.off, n+1)
	clear(off)
	for i := range deps {
		if d := &deps[i]; set.has(d) {
			off[d.end(byFrom)]++
		}
	}
	// The prefix sums turn the counts into each list's end; the backward
	// fill walks every end down to its list's start, in Deps order.
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	dep := resize(x.dep, int(off[n]))
	for e := len(deps) - 1; e >= 0; e-- {
		if d := &deps[e]; set.has(d) {
			k := d.end(byFrom)
			off[k]--
			dep[off[k]] = int32(e)
		}
	}
	x.off, x.dep = off, dep
}

// end returns d's producer when byFrom is set, its consumer otherwise.
func (d *Dep) end(byFrom bool) int {
	if byFrom {
		return d.From
	}
	return d.To
}

// Adj is the scheduler's view of a loop's dependences by op: a DepIndex
// over every dependence with the Deps it lists gathered beside it, so a
// walk over an op's edges reads one run of memory. Per-op edge lists
// preserve Deps order. The view is a snapshot — it does not track later
// loop mutations.
type Adj struct {
	idx  DepIndex
	deps []Dep
}

// At returns the edges of op id. The returned slice aliases the view's
// storage and must not be appended to or retained across a rebuild.
func (a *Adj) At(id int) []Dep {
	return a.deps[a.idx.off[id]:a.idx.off[id+1]]
}

// PredsInto rebuilds a as the predecessor view, reusing its storage.
func (l *Loop) PredsInto(a *Adj) { l.adjInto(a, false) }

// SuccsInto rebuilds a as the successor view, reusing its storage.
func (l *Loop) SuccsInto(a *Adj) { l.adjInto(a, true) }

func (l *Loop) adjInto(a *Adj, byFrom bool) {
	l.IndexDeps(&a.idx, AllDeps, byFrom)
	src, idx := l.Deps, a.idx.dep
	deps := resize(a.deps, len(idx))
	for i, e := range idx {
		deps[i] = src[e]
	}
	a.deps = deps
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
