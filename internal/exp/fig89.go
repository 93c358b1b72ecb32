package exp

import (
	"fmt"

	"vliwq/internal/ir"
	"vliwq/internal/machine"
	"vliwq/internal/metrics"
	"vliwq/internal/sched"
)

// ipcBindings are the machines of Figs. 8 and 9: binding nfu-4 is
// SingleCluster(nfu) for nfu in 4..18, and binding ipcClustered+nc-2 is
// Clustered(nc) for nc in 2..6 — clustered machines exist at multiples of
// 3 FUs (>= 2 clusters).
var ipcBindings = func() (bs []binding) {
	for nfu := 4; nfu <= 18; nfu++ {
		bs = append(bs, unrolled(machine.SingleCluster(nfu)))
	}
	for nc := 2; nc <= 6; nc++ {
		bs = append(bs, unrolled(machine.Clustered(nc)))
	}
	return bs
}()

// ipcClustered is the index of Clustered(2) in ipcBindings.
const ipcClustered = 15

// ipcSeries computes the four curves of Figs. 8/9 — static and dynamic IPC
// for single-cluster and clustered machines — across the FU axis. Static
// IPC is averaged per loop (kernel issue rate); dynamic IPC is weighted by
// execution time across the corpus, which is what lets a few large loops
// dominate, the effect the paper highlights.
func ipcSeries(opts Options, loops []*ir.Loop, title, id string) *Table {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"FUs", "static single", "static clustered", "dynamic single", "dynamic clustered"},
	}
	type point struct {
		static float64
		ops    float64
		cycles float64
		ok     bool
	}
	results := sweep(opts, loops, ipcBindings, func(c compiled) point {
		if c.Err != nil {
			return point{}
		}
		return point{
			static: c.IPC,
			ok:     true,
			ops:    float64(c.RealOps * c.Iters),
			cycles: float64(c.Cycles),
		}
	})
	measure := func(j int) (staticMean float64, dynIPC float64) {
		var m metrics.Mean
		var ops, cycles float64
		for _, r := range results {
			p := r[j]
			if !p.ok {
				continue
			}
			m.Add(p.static)
			ops += p.ops
			cycles += p.cycles
		}
		if cycles == 0 {
			return 0, 0
		}
		return m.Value(), ops / cycles
	}

	for nfu := 4; nfu <= 18; nfu++ {
		sStat, sDyn := measure(nfu - 4)
		row := []string{fmt.Sprintf("%d", nfu), fmt.Sprintf("%.2f", sStat), "", fmt.Sprintf("%.2f", sDyn), ""}
		if nfu >= 6 && nfu%3 == 0 {
			cStat, cDyn := measure(ipcClustered + nfu/3 - 2)
			row[2] = fmt.Sprintf("%.2f", cStat)
			row[4] = fmt.Sprintf("%.2f", cDyn)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig8 reproduces "Figure 8. IPC — All Loops".
func Fig8(opts Options) *Table {
	t := ipcSeries(opts, opts.loops(),
		"Operations issued per cycle, all loops", "fig8")
	t.Notes = append(t.Notes,
		"paper: static > dynamic (prologue/epilogue overhead); many loops are recurrence-bound and cannot use extra FUs",
		"clustered columns exist at 6/9/12/15/18 FUs (2..6 clusters)")
	return t
}

// Fig9 reproduces "Figure 9. IPC — Resource-Constrained Loops": the same
// series restricted to loops whose II is limited by the functional units
// even on the largest machine (RecMII <= ResMII at 18 FUs).
func Fig9(opts Options) *Table {
	big := machine.SingleCluster(18)
	var filtered []*ir.Loop
	for _, l := range opts.loops() {
		res, err := sched.ResMII(l, big)
		if err != nil {
			continue
		}
		if sched.RecMII(l) <= res {
			filtered = append(filtered, l)
		}
	}
	t := ipcSeries(opts, filtered,
		fmt.Sprintf("Operations issued per cycle, resource-constrained loops (%d of %d)",
			len(filtered), len(opts.loops())), "fig9")
	t.Notes = append(t.Notes,
		"paper: issue rates rise much faster with machine width than for the full corpus; the single-vs-clustered gap at 15/18 FUs is the partitioning cost")
	return t
}
