// Package metrics computes the performance measures the paper reports:
// initiation-interval speedups from unrolling (Fig. 4), stage counts, and
// static/dynamic operations-issued-per-cycle (Figs. 8 and 9).
package metrics

import (
	"vliwq/internal/ir"
	"vliwq/internal/sched"
)

// RealOps counts the operations of the original program, excluding the
// copy and move overhead the compiler added. The paper sizes machines as
// "N FUs plus the required FUs to support copy operations" and reports
// issue rates of program operations, so overhead ops are not counted as
// issued work.
func RealOps(l *ir.Loop) int {
	n := 0
	for _, op := range l.Ops {
		if op.Kind != ir.KCopy && op.Kind != ir.KMove {
			n++
		}
	}
	return n
}

// IPCStatic is the kernel-phase issue rate for one iteration of the
// scheduled body: program operations per II cycles (paper §4).
func IPCStatic(s *sched.Schedule) float64 {
	return float64(RealOps(s.Loop)) / float64(s.II)
}

// Cycles models the total execution time of the software-pipelined loop:
// prologue + kernel + epilogue = (iterations + stages - 1) * II, where
// iterations counts executions of the (possibly unrolled) body.
func Cycles(s *sched.Schedule, iterations int) int {
	return (iterations + s.StageCount() - 1) * s.II
}

// IPCDynamic is the issue rate over the whole execution including the less
// efficient prologue and epilogue phases.
func IPCDynamic(s *sched.Schedule, iterations int) float64 {
	if iterations <= 0 {
		iterations = s.Loop.TripCount()
	}
	return float64(RealOps(s.Loop)*iterations) / float64(Cycles(s, iterations))
}

// IISpeedup is the paper's Equation (1), normalized per original
// iteration: II_speedup = (II_original * U) / II_unrolled, where the
// unrolled body covers U original iterations per initiation.
func IISpeedup(origII, factor, unrolledII int) float64 {
	return float64(origII*factor) / float64(unrolledII)
}

// DynamicAggregate accumulates corpus-wide dynamic issue statistics. The
// paper's dynamic analysis weights loops by execution time, which is why a
// few large loops dominate the dynamic numbers (Fig. 8 discussion); this
// accumulator reproduces that weighting: total operations issued over
// total cycles across the whole corpus.
type DynamicAggregate struct {
	ops    float64
	cycles float64
}

// Add accounts one scheduled loop. origIterations is the trip count in the
// original iteration space; the body executes origIterations/U times.
func (d *DynamicAggregate) Add(s *sched.Schedule, origIterations int) {
	u := s.Loop.UnrollFactor()
	iters := origIterations / u
	if iters < 1 {
		iters = 1
	}
	d.ops += float64(RealOps(s.Loop) * iters)
	d.cycles += float64(Cycles(s, iters))
}

// IPC returns the execution-time-weighted dynamic issue rate.
func (d *DynamicAggregate) IPC() float64 {
	if d.cycles == 0 {
		return 0
	}
	return d.ops / d.cycles
}

// Mean accumulates an arithmetic mean (used for the static IPC series,
// which the paper averages per loop).
type Mean struct {
	sum float64
	n   int
}

// Add accounts one sample.
func (m *Mean) Add(v float64) { m.sum += v; m.n++ }

// Value returns the mean (0 for no samples).
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}
