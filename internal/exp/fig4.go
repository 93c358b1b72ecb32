package exp

import (
	"fmt"

	"vliwq/internal/copyins"
	"vliwq/internal/machine"
	"vliwq/internal/metrics"
)

// unrollBindings are the paper's single-cluster machines with copy
// operations, each without and then with loop unrolling: bindings 2i and
// 2i+1 are machine.PaperSingleClusterFUs[i]. Fig. 4 and UnrollQueues
// compile them.
var unrollBindings = func() (bs []binding) {
	for _, nfu := range machine.PaperSingleClusterFUs {
		m := machine.SingleCluster(nfu)
		bs = append(bs, on(m, copyins.Tree), unrolled(m))
	}
	return bs
}()

// Fig4 reproduces "Figure 4. Initiation Interval Speedup": the fraction of
// loops achieving II_speedup > 1 when loop unrolling is applied, per
// machine, using no extra functional units (Equation 1, normalized per
// original iteration).
func Fig4(opts Options) *Table {
	loops := opts.loops()
	t := &Table{
		ID:     "fig4",
		Title:  "II speedup from loop unrolling (no extra FUs)",
		Header: []string{"machine", "speedup > 1", "mean speedup (improved)", "mean unroll factor", "unrolled loops"},
	}
	type res struct {
		ok           bool
		ii, unrolled int
	}
	results := sweep(opts, loops, unrollBindings, func(c compiled) res {
		return res{ok: c.Err == nil, ii: c.II, unrolled: c.Unrolled}
	})
	for i, nfu := range machine.PaperSingleClusterFUs {
		var ok, improved, unrolled, factors int
		var gain metrics.Mean
		for _, r := range results {
			base, un := r[2*i], r[2*i+1]
			if !base.ok || !un.ok {
				continue
			}
			ok++
			factors += un.unrolled
			if un.unrolled > 1 {
				unrolled++
			}
			if speedup := metrics.IISpeedup(base.ii, un.unrolled, un.ii); speedup > 1 {
				improved++
				gain.Add(speedup)
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d FUs", nfu),
			pct(improved, ok),
			fmt.Sprintf("%.2fx", gain.Value()),
			fmt.Sprintf("%.2f", float64(factors)/float64(ok)),
			pct(unrolled, ok),
		})
	}
	t.Notes = append(t.Notes,
		"paper: a considerable fraction of loops achieves II_speedup > 1 with no extra FUs",
		"recurrence-bound loops cannot improve: their latency/distance ratio is unroll-invariant")
	return t
}

// UnrollQueues reproduces the §3 text result: unrolling moderately
// increases queue demand, but 32 queues still cover over 90% of loops.
func UnrollQueues(opts Options) *Table {
	loops := opts.loops()
	t := &Table{
		ID:     "unrollqueues",
		Title:  "Queue demand after unrolling (cumulative % of loops)",
		Header: []string{"machine", "<=4", "<=8", "<=16", "<=32", "mean queues (unrolled vs not)"},
	}
	type res struct {
		ok     bool
		queues int
	}
	results := sweep(opts, loops, unrollBindings, func(c compiled) res {
		return res{ok: c.Err == nil, queues: c.Private}
	})
	for i, nfu := range machine.PaperSingleClusterFUs {
		counts := make([]int, len(queueThresholds))
		var ok, sumBase, sumUnrl int
		for _, r := range results {
			base, un := r[2*i], r[2*i+1]
			if !base.ok || !un.ok {
				continue
			}
			ok++
			sumBase += base.queues
			sumUnrl += un.queues
			for k, q := range queueThresholds {
				if un.queues <= q {
					counts[k]++
				}
			}
		}
		row := []string{fmt.Sprintf("%d FUs", nfu)}
		for _, c := range counts {
			row = append(row, pct(c, ok))
		}
		row = append(row, fmt.Sprintf("%.1f vs %.1f",
			float64(sumUnrl)/float64(ok), float64(sumBase)/float64(ok)))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: 32 queues still schedule over 90% of loops after unrolling")
	return t
}
