package ir

import (
	"errors"
	"fmt"
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
	if len(l.Ops) == 0 {
		return ErrEmptyLoop
	}
	for i, op := range l.Ops {
		if op == nil || op.ID != i {
			return fmt.Errorf("%w: index %d", ErrMisnumberedOps, i)
		}
		if !op.Kind.Valid() {
			return fmt.Errorf("%w: %v", ErrBadKind, op)
		}
	}
	nIn := make([]int, len(l.Ops))
	for _, d := range l.Deps {
		if d.From < 0 || d.From >= len(l.Ops) || d.To < 0 || d.To >= len(l.Ops) {
			return fmt.Errorf("%w: %v", ErrBadOpID, d)
		}
		if d.Dist < 0 {
			return fmt.Errorf("%w: %v", ErrNegativeDist, d)
		}
		if d.From == d.To && d.Dist == 0 {
			return fmt.Errorf("%w: %v", ErrSelfDep, d)
		}
		if d.Kind == Flow {
			if !l.Ops[d.From].Kind.HasResult() {
				return fmt.Errorf("%w: %v", ErrStoreProduces, d)
			}
			nIn[d.To]++
		}
	}
	for i, op := range l.Ops {
		if nIn[i] > op.Kind.MaxInputs() {
			return fmt.Errorf("%w: %v has %d", ErrTooManyInputs, op, nIn[i])
		}
	}
	if l.hasZeroDistCycle() {
		return fmt.Errorf("%w: loop %q", ErrZeroDistCycle, l.Name)
	}
	return nil
}

// zdcFrame is one explicit DFS stack entry of hasZeroDistCycle: a node and
// its next-edge cursor.
type zdcFrame struct{ v, i int32 }

// zdcScratch recycles hasZeroDistCycle's working arrays; the compile
// engine validates every input loop, so the check runs on every compile
// and its allocations would otherwise dominate the fixed per-call cost.
type zdcScratch struct {
	off   []int32
	flat  []int32
	color []int8
	stack []zdcFrame
}

var zdcPool = sync.Pool{New: func() any { return new(zdcScratch) }}

// hasZeroDistCycle reports whether the Dist==0 subgraph contains a cycle
// (three-colour iterative DFS). Validate used to detect this through a full
// TopoOrder, whose deterministic smallest-ID-first ready list costs a
// sorted insertion per node; the compile engine validates every input
// loop, so the cycle check alone is worth an order-free implementation.
func (l *Loop) hasZeroDistCycle() bool {
	scr := zdcPool.Get().(*zdcScratch)
	defer zdcPool.Put(scr)
	n := len(l.Ops)
	off := resize(scr.off, n+1)
	scr.off = off
	for i := range off {
		off[i] = 0
	}
	for _, d := range l.Deps {
		if d.Dist == 0 {
			off[d.From+1]++
		}
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	flat := resize(scr.flat, int(off[n]))
	scr.flat = flat
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
	// color: 0 unvisited, 1 on the current DFS path, 2 done.
	color := resize(scr.color, n)
	scr.color = color
	for i := range color {
		color[i] = 0
	}
	stack := scr.stack[:0]
	defer func() { scr.stack = stack }()
	for s := 0; s < n; s++ {
		if color[s] != 0 {
			continue
		}
		color[s] = 1
		stack = append(stack, zdcFrame{v: int32(s), i: off[s]})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.i == off[f.v+1] {
				color[f.v] = 2
				stack = stack[:len(stack)-1]
				continue
			}
			w := flat[f.i]
			f.i++
			switch color[w] {
			case 0:
				color[w] = 1
				stack = append(stack, zdcFrame{v: w, i: off[w]})
			case 1:
				return true
			}
		}
	}
	return false
}

// resize returns s with length n, reusing its backing array when large
// enough; the contents are unspecified (callers overwrite them).
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
