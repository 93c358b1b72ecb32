// Package unroll implements loop unrolling for modulo scheduling (§3 of the
// paper, following Lavery/Hwu-style unrolling-based optimization): the loop
// body is replicated U times and every dependence is re-wired so that the
// unrolled body has exactly the semantics of U consecutive iterations of
// the original loop.
package unroll

import (
	"fmt"
	"strconv"

	"vliwq/internal/ir"
	"vliwq/internal/machine"
	"vliwq/internal/sched"
)

// Unroll returns a new loop whose body is `factor` replicas of l's body. A
// dependence (a -> b, distance d) becomes, for each consumer replica u, a
// dependence from replica (u-d) mod U of a to replica u of b with distance
// floor-div((d-u+U-1)... precisely ((u-d) mod U - (u-d)) / U — zero for
// intra-body references, positive when the producer instance belongs to an
// earlier unrolled iteration.
//
// The replicas carry Orig/Phase lineage so simulation and semantic tests
// can map unrolled instances back to the original iteration space.
func Unroll(l *ir.Loop, factor int) (*ir.Loop, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if factor < 1 {
		return nil, fmt.Errorf("unroll: factor must be >= 1, got %d", factor)
	}
	if l.UnrollFactor() != 1 {
		return nil, fmt.Errorf("unroll: loop %q is already unrolled", l.Name)
	}
	if factor == 1 {
		return l.Clone(), nil
	}
	n := len(l.Ops)
	out := &ir.Loop{
		Name:   l.Name + ".x" + strconv.Itoa(factor),
		Trip:   maxInt(1, l.TripCount()/factor),
		Unroll: factor,
		Ops:    make([]*ir.Op, factor*n),
		Deps:   make([]ir.Dep, 0, factor*len(l.Deps)),
	}
	// Replica u of original op i gets ID u*n + i.
	ops := make([]ir.Op, factor*n)
	for u := 0; u < factor; u++ {
		for i, op := range l.Ops {
			id := u*n + i
			ops[id] = ir.Op{ID: id, Kind: op.Kind, Orig: op.EffID(), Phase: u}
			if op.Name != "" {
				ops[id].Name = op.Name + "." + strconv.Itoa(u)
			}
			out.Ops[id] = &ops[id]
		}
	}
	for _, d := range l.Deps {
		for u := 0; u < factor; u++ {
			q := u - d.Dist
			up := ((q % factor) + factor) % factor // producer replica
			dist := (up - q) / factor              // unrolled distance
			out.AddDep(ir.Dep{
				From: up*n + d.From,
				To:   u*n + d.To,
				Dist: dist,
				Kind: d.Kind,
			})
		}
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("unroll: internal error: %w", err)
	}
	return out, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// MaxAutoFactor bounds the unroll factors AutoFactor considers.
const MaxAutoFactor = 8

// MaxUnrolledOps bounds the unrolled body size AutoFactor will produce;
// larger bodies make scheduling disproportionately expensive for little
// gain.
const MaxUnrolledOps = 256

// AutoFactor picks the unroll factor in [1, MaxAutoFactor] that minimizes
// the per-original-iteration II lower bound on the given machine:
//
//	bound(U) = max(RecMII, max_class ceil(U*ops_class/fus_class) / U)
//
// Unrolling cannot beat the recurrence bound (a recurrence circuit's
// latency-to-distance ratio is invariant under unrolling), so recurrence-
// bound loops stay at factor 1; resource-bound loops are unrolled until
// the fractional resource bound stops improving. Ties pick the smaller
// factor (smaller code, cheaper scheduling).
func AutoFactor(l *ir.Loop, cfg machine.Config) int {
	var ops [machine.NumClasses]int
	for _, op := range l.Ops {
		ops[machine.ClassOf(op.Kind)]++
	}
	fus := cfg.TotalFUs()
	recMII := sched.RecMII(l)

	best, bestNum, bestDen := 1, 0, 1 // bound as a fraction num/den
	for u := 1; u <= MaxAutoFactor; u++ {
		if u*len(l.Ops) > MaxUnrolledOps && u > 1 {
			break
		}
		num := recMII * u // max(recMII, res/u) scaled by u
		for c := range ops {
			if ops[c] == 0 || fus[c] == 0 {
				continue
			}
			res := (u*ops[c] + fus[c] - 1) / fus[c]
			if res > num {
				num = res
			}
		}
		// Compare num/u < bestNum/bestDen.
		if u == 1 || num*bestDen < bestNum*u {
			best, bestNum, bestDen = u, num, u
		}
	}
	return best
}
