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
// on a scratch of its own, whose values the result keeps, and fills Stores
// from them after the run.
func Reference(l *ir.Loop, n int) (*Ref, error) {
	vals, err := new(scratch).reference(l, n)
	if err != nil {
		return nil, err
	}
	r := &Ref{Loop: l, N: n, Values: make([][]int64, len(l.Ops)), Stores: make(map[StoreKey]int64)}
	for id, op := range l.Ops {
		r.Values[id] = vals[id*n : (id+1)*n : (id+1)*n]
		if op.Kind != ir.KStore {
			continue
		}
		for k, v := range r.Values[id] {
			r.Stores[StoreKey{op.EffID(), l.OrigIter(op, k)}] = v
		}
	}
	return r, nil
}

// reference is the sequential execution behind Reference. It returns every
// instance's value in one flat [op*n+k] slice of the scratch.
func (scr *scratch) reference(l *ir.Loop, n int) ([]int64, error) {
	// TopoOrder validates the loop as it orders it.
	order, err := l.TopoOrder(scr.order)
	if err != nil {
		return nil, err
	}
	scr.order = order
	l.IndexDeps(&scr.in, ir.FlowDeps, false)
	inputs := scr.in
	vals := resize(scr.want, len(l.Ops)*n)
	scr.want = vals
	args := scr.args[:0]
	defer func() { scr.args = args }()
	for k := 0; k < n; k++ {
		for _, id := range order {
			op := l.Ops[id]
			args = args[:0]
			for _, di := range inputs.At(int(id)) {
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
			vals[int(id)*n+k] = ir.Eval(op, l.OrigIter(op, k), args)
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
