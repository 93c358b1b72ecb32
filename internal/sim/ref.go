// Package sim executes loops two ways and compares the outcomes:
//
//   - Reference: a plain sequential interpreter of the dependence graph,
//     iteration by iteration — the ground truth.
//   - Pipelined: a cycle-accurate model of the clustered VLIW machine with
//     queue register files executing a modulo schedule plus queue
//     allocation. Every value carries a (producer, iteration) tag; each
//     queue pop asserts that FIFO order delivered exactly the value the
//     consumer expects, so any violation of the Q-Compatibility theorem,
//     the partitioner's adjacency rule or a dependence constraint
//     surfaces as a precise error.
//
// Both interpreters share ir.Eval, so a surviving value mismatch always
// indicates a scheduling/allocation bug, never divergent semantics.
package sim

import (
	"fmt"

	"vliwq/internal/ir"
)

// StoreKey identifies one store instance in the original iteration space.
type StoreKey struct {
	Op   int // effective (pre-unrolling) op ID of the store
	Iter int // original iteration
}

// Ref is the outcome of a sequential reference execution.
type Ref struct {
	Loop *ir.Loop
	N    int // iterations executed (of the possibly-unrolled body)
	// Values[op][k] is the value op produced in body-iteration k.
	Values [][]int64
	// Stores records every store instance, keyed in the original
	// iteration space so unrolled and natural bodies are comparable.
	Stores map[StoreKey]int64
}

// Reference executes n iterations of the loop body sequentially. It runs
// on a scratch of its own, whose values the result keeps.
func Reference(l *ir.Loop, n int) (*Ref, error) {
	r := &Ref{Loop: l, N: n, Stores: make(map[StoreKey]int64)}
	vals, err := new(scratch).reference(l, n, r.Stores)
	if err != nil {
		return nil, err
	}
	r.Values = make([][]int64, len(l.Ops))
	for id := range r.Values {
		r.Values[id] = vals[id*n : (id+1)*n : (id+1)*n]
	}
	return r, nil
}

// reference is the sequential execution behind Reference. It returns every
// instance's value in one flat [op*n+k] slice of the scratch and records
// each store instance in stores when stores is non-nil.
func (scr *scratch) reference(l *ir.Loop, n int, stores map[StoreKey]int64) ([]int64, error) {
	// TopoOrder validates the loop as it orders it.
	order, err := l.TopoOrder(scr.order)
	if err != nil {
		return nil, err
	}
	scr.order = order
	scr.flowInputs(l)
	inOff, inDep := scr.inOff, scr.inDep
	vals := resize(scr.want, len(l.Ops)*n)
	scr.want = vals
	args := scr.args[:0]
	defer func() { scr.args = args }()
	for k := 0; k < n; k++ {
		for _, id := range order {
			op := l.Ops[id]
			args = args[:0]
			for _, di := range inDep[inOff[id]:inOff[id+1]] {
				d := &l.Deps[di]
				// Negative iterations yield the synthetic live-in values
				// that exist before the loop starts.
				if j := k - d.Dist; j >= 0 {
					args = append(args, vals[d.From*n+j])
				} else {
					from := l.Ops[d.From]
					args = append(args, ir.LeafValue(from.EffID(), l.OrigIter(from, j)))
				}
			}
			v := ir.Eval(op, l.OrigIter(op, k), args)
			vals[int(id)*n+k] = v
			if stores != nil && op.Kind == ir.KStore {
				stores[StoreKey{op.EffID(), l.OrigIter(op, k)}] = v
			}
		}
	}
	return vals, nil
}

// CompareStores checks that two executions stored exactly the same values
// for every (store, original-iteration) key present in both. Keys present
// in only one execution are ignored when onlyCommon is true (an unrolled
// body covers a truncated iteration range).
func CompareStores(a, b map[StoreKey]int64, onlyCommon bool) error {
	for k, va := range a {
		vb, ok := b[k]
		if !ok {
			if onlyCommon {
				continue
			}
			return fmt.Errorf("sim: store %+v missing from second execution", k)
		}
		if va != vb {
			return fmt.Errorf("sim: store %+v differs: %d vs %d", k, va, vb)
		}
	}
	if !onlyCommon {
		for k := range b {
			if _, ok := a[k]; !ok {
				return fmt.Errorf("sim: store %+v missing from first execution", k)
			}
		}
	}
	return nil
}

// flowInputs fills scr.inOff and scr.inDep with each op's flow-input
// dependence indices in Deps order, the operand order of ir.Eval: op id's
// are inDep[inOff[id]:inOff[id+1]].
func (scr *scratch) flowInputs(l *ir.Loop) {
	n := len(l.Ops)
	off := resize(scr.inOff, n+1)
	clear(off)
	m := 0
	for _, d := range l.Deps {
		if d.Kind == ir.Flow {
			off[d.To+1]++
			m++
		}
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	dep := resize(scr.inDep, m)
	for di, d := range l.Deps {
		if d.Kind == ir.Flow {
			dep[off[d.To]] = int32(di)
			off[d.To]++
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	scr.inOff, scr.inDep = off, dep
}
