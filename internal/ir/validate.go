package ir

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// Validation errors returned by Loop.Validate. They are wrapped with
// positional context; use errors.Is to test for them.
var (
	ErrEmptyLoop      = errors.New("ir: loop has no operations")
	ErrBadOpID        = errors.New("ir: dependence references an unknown op")
	ErrBadKind        = errors.New("ir: operation has an invalid kind")
	ErrNegativeDist   = errors.New("ir: dependence has a negative distance")
	ErrZeroDistCycle  = errors.New("ir: zero-distance dependence cycle")
	ErrSelfDep        = errors.New("ir: zero-distance self dependence")
	ErrStoreProduces  = errors.New("ir: store operation used as a value producer")
	ErrTooManyInputs  = errors.New("ir: operation has more flow inputs than its kind allows")
	ErrMisnumberedOps = errors.New("ir: op IDs are not dense indices")
)

// Validate checks the structural invariants of the loop:
//
//   - at least one operation, dense op IDs, valid kinds;
//   - all dependence endpoints exist, distances are non-negative;
//   - no zero-distance self dependences, no zero-distance cycles;
//   - stores never act as value producers;
//   - no operation has more flow inputs than its kind can read.
func (l *Loop) Validate() error {
	scr := zdcPool.Get().(*zdcScratch)
	defer zdcPool.Put(scr)
	var err error
	scr.order, err = l.validate(scr, scr.order)
	return err
}

// TopoOrder validates the loop as Validate does and returns its op IDs in
// an order in which every zero-distance dependence runs forward, reusing
// order's storage. The order is Kahn's algorithm, first in first out, the
// pass that comes up short of the loop exactly on the zero-distance cycle
// Validate rejects; every such order gives each instance of the body the
// same value.
func (l *Loop) TopoOrder(order []int32) ([]int32, error) {
	scr := zdcPool.Get().(*zdcScratch)
	defer zdcPool.Put(scr)
	order, err := l.validate(scr, order)
	if err != nil {
		return nil, err
	}
	return order, nil
}

// validate is Validate on the given scratch. It returns order's storage,
// which holds the loop's zero-distance order when the loop is valid.
func (l *Loop) validate(scr *zdcScratch, order []int32) ([]int32, error) {
	if len(l.Ops) == 0 {
		return order, ErrEmptyLoop
	}
	for i, op := range l.Ops {
		if op == nil || op.ID != i {
			return order, fmt.Errorf("%w: index %d", ErrMisnumberedOps, i)
		}
		if !op.Kind.Valid() {
			return order, fmt.Errorf("%w: %v", ErrBadKind, op)
		}
	}
	nIn, indeg := resize(scr.nIn, len(l.Ops)), resize(scr.indeg, len(l.Ops))
	scr.nIn, scr.indeg = nIn, indeg
	clear(nIn)
	clear(indeg)
	for _, d := range l.Deps {
		if d.From < 0 || d.From >= len(l.Ops) || d.To < 0 || d.To >= len(l.Ops) {
			return order, fmt.Errorf("%w: %v", ErrBadOpID, d)
		}
		if d.Dist < 0 {
			return order, fmt.Errorf("%w: %v", ErrNegativeDist, d)
		}
		if d.From == d.To && d.Dist == 0 {
			return order, fmt.Errorf("%w: %v", ErrSelfDep, d)
		}
		if d.Kind == Flow {
			if !l.Ops[d.From].Kind.HasResult() {
				return order, fmt.Errorf("%w: %v", ErrStoreProduces, d)
			}
			nIn[d.To]++
		}
		if d.Dist == 0 {
			indeg[d.To]++
		}
	}
	for i, op := range l.Ops {
		if int(nIn[i]) > op.Kind.MaxInputs() {
			return order, fmt.Errorf("%w: %v has %d", ErrTooManyInputs, op, nIn[i])
		}
	}
	if order = l.zeroDistOrder(scr, order); len(order) != len(l.Ops) {
		return order, fmt.Errorf("%w: loop %q", ErrZeroDistCycle, l.Name)
	}
	return order, nil
}

// zdcScratch recycles the working arrays of Validate and TopoOrder: the
// flow-input counts, the zero-distance in-degrees, zeroDistOrder's index
// of zero-distance successors and order (Validate's own). The compile
// engine validates every input loop and the simulator's reference run
// orders the loop it replays, so the check runs twice per compile, and
// its allocations would otherwise dominate its fixed per-call cost.
type zdcScratch struct {
	nIn   []int32
	indeg []int32
	succ  DepIndex
	order []int32
}

var zdcPool = sync.Pool{New: func() any { return new(zdcScratch) }}

// zeroDistOrder returns order's storage holding the op IDs in an order in
// which every zero-distance dependence runs forward, by Kahn's algorithm,
// first in first out, over the zero-distance successors, from the
// in-degrees validate counted into scr.indeg. Ops on or behind a
// zero-distance cycle never become ready and are left out, so the order
// is shorter than the loop exactly when the zero-distance subgraph has a
// cycle.
func (l *Loop) zeroDistOrder(scr *zdcScratch, order []int32) []int32 {
	n := len(l.Ops)
	l.IndexDeps(&scr.succ, ZeroDistDeps, true)
	deps, succ, indeg := l.Deps, scr.succ, scr.indeg
	// The order is also the ready queue: the ops before i have released
	// their successors, the ops from i on wait to.
	order = slices.Grow(order[:0], n)
	for id := range n {
		if indeg[id] == 0 {
			order = append(order, int32(id))
		}
	}
	for i := 0; i < len(order); i++ {
		for _, e := range succ.At(int(order[i])) {
			s := deps[e].To
			if indeg[s]--; indeg[s] == 0 {
				order = append(order, int32(s))
			}
		}
	}
	return order
}

// resize returns s with length n, reusing its backing array when large
// enough; the contents are unspecified (callers overwrite them).
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
