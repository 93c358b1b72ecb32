package exp

import (
	"fmt"

	"vliwq/internal/copyins"
	"vliwq/internal/machine"
)

// queueThresholds are Fig. 3's x-axis: private QRF sizes.
var queueThresholds = []int{4, 8, 16, 32}

// copyBindings are the paper's single-cluster machines, each without and
// then with copy operations: bindings 2i and 2i+1 are
// machine.PaperSingleClusterFUs[i]. Fig. 3 and CopyCost compile them.
var copyBindings = func() (bs []binding) {
	for _, nfu := range machine.PaperSingleClusterFUs {
		m := machine.SingleCluster(nfu)
		bs = append(bs, on(m, copyins.None), on(m, copyins.Tree))
	}
	return bs
}()

// Fig3 reproduces "Figure 3. Number of Queues": the cumulative fraction of
// loops whose queue allocation fits within 4/8/16/32 queues, for machines
// of 4, 6 and 12 FUs, with copy operations inserted — and, for the copy-op
// comparison the section discusses, without them (simultaneous writes
// allowed, Fig. 1c style).
func Fig3(opts Options) *Table {
	loops := opts.loops()
	t := &Table{
		ID:     "fig3",
		Title:  "Number of queues required (cumulative % of loops)",
		Header: []string{"machine", "copy ops", "<=4", "<=8", "<=16", "<=32", "unschedulable"},
	}
	// The private queues each compile needs, or -1 where it failed.
	queues := sweep(opts, loops, copyBindings, func(c compiled) int {
		if c.Err != nil {
			return -1
		}
		return c.Private
	})
	for j, b := range copyBindings {
		counts := make([]int, len(queueThresholds))
		failed := 0
		for _, r := range queues {
			if r[j] < 0 {
				failed++
				continue
			}
			for i, q := range queueThresholds {
				if r[j] <= q {
					counts[i]++
				}
			}
		}
		label := "with"
		if b.shape == copyins.None {
			label = "without"
		}
		row := []string{fmt.Sprintf("%d FUs", machine.PaperSingleClusterFUs[j/2]), label}
		for _, c := range counts {
			row = append(row, pct(c, len(loops)))
		}
		row = append(row, fmt.Sprintf("%d", failed))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: 32 queues schedule most loops on every machine; copy ops do not significantly increase queue demand",
		"'without' counts queues for multi-consumer values stored into one queue per consumer (simultaneous writes)")
	return t
}

// CopyCost reproduces the §2 text results: the fraction of loops whose II
// and stage count survive copy insertion unchanged.
func CopyCost(opts Options) *Table {
	loops := opts.loops()
	t := &Table{
		ID:     "copycost",
		Title:  "Cost of copy operations (vs. schedule without copies)",
		Header: []string{"machine", "same II", "same stage count", "mean II growth", "mean copies/loop"},
	}
	type res struct {
		ok             bool
		ii, sc, copies int
	}
	results := sweep(opts, loops, copyBindings, func(c compiled) res {
		return res{ok: c.Err == nil, ii: c.II, sc: c.StageCount, copies: c.Copies}
	})
	for i, nfu := range machine.PaperSingleClusterFUs {
		var ok, sameII, sameSC, copies int
		var growth float64
		for _, r := range results {
			base, with := r[2*i], r[2*i+1]
			if !base.ok || !with.ok {
				continue
			}
			ok++
			if with.ii == base.ii {
				sameII++
			}
			if with.sc == base.sc {
				sameSC++
			}
			growth += float64(with.ii) / float64(base.ii)
			copies += with.copies
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d FUs", nfu),
			pct(sameII, ok),
			pct(sameSC, ok),
			fmt.Sprintf("%.3fx", growth/float64(ok)),
			fmt.Sprintf("%.2f", float64(copies)/float64(ok)),
		})
	}
	t.Notes = append(t.Notes,
		"paper: ~95% of loops keep the same II after copy insertion; stage count unchanged for most loops")
	return t
}
