package exp

import (
	"fmt"

	"vliwq/internal/machine"
)

// fig6Bindings pair each of the paper's cluster counts with the
// single-cluster machine of the same size: bindings 2i and 2i+1 are
// SingleCluster(3n) and Clustered(n) for n = machine.PaperClusterCounts[i].
var fig6Bindings = func() (bs []binding) {
	for _, nc := range machine.PaperClusterCounts {
		bs = append(bs, unrolled(machine.SingleCluster(3*nc)), unrolled(machine.Clustered(nc)))
	}
	return bs
}()

// clusterBindings are the paper's clustered machines: binding i is
// Clustered(machine.PaperClusterCounts[i]).
var clusterBindings = func() (bs []binding) {
	for _, nc := range machine.PaperClusterCounts {
		bs = append(bs, unrolled(machine.Clustered(nc)))
	}
	return bs
}()

// Fig6 reproduces "Figure 6. Initiation Interval Variation": the fraction
// of loops that the partitioned scheduler places on a clustered machine at
// exactly the II achieved by the single-cluster machine of the same size,
// for 4, 5 and 6 clusters (12, 15, 18 FUs). Loop unrolling and copy
// insertion are applied, as in the paper's experiments.
func Fig6(opts Options) *Table {
	loops := opts.loops()
	t := &Table{
		ID:     "fig6",
		Title:  "Partitioned vs single-cluster II (IMS partitioning)",
		Header: []string{"clusters", "FUs", "same II", "+1 cycle", ">+1", "unschedulable"},
	}
	// The II of each compile, or -1 where it failed. The same transformed
	// body is scheduled on both machines of a pair: their total FU mixes
	// match, so AutoFactor picks one factor for both.
	iis := sweep(opts, loops, fig6Bindings, func(c compiled) int {
		if c.Err != nil {
			return -1
		}
		return c.II
	})
	for i, nc := range machine.PaperClusterCounts {
		var ok, same, plus1, more, failed int
		for _, r := range iis {
			single, clustered := r[2*i], r[2*i+1]
			if single < 0 || clustered < 0 {
				failed++
				continue
			}
			ok++
			switch delta := clustered - single; {
			case delta <= 0:
				same++
			case delta == 1:
				plus1++
			default:
				more++
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", nc),
			fmt.Sprintf("%d", 3*nc),
			pct(same, ok),
			pct(plus1, ok),
			pct(more, ok),
			fmt.Sprintf("%d", failed),
		})
	}
	t.Notes = append(t.Notes,
		"paper: ~95% same II at 4 clusters, 84% at 5, 52% at 6; degradation blamed on the inability to move values between non-adjacent clusters")
	return t
}

// ClusterResources reproduces the §4 hardware sizing result: a cluster of
// 8 private queues plus 8 ring queues per direction suffices for the vast
// majority of loops (Fig. 7's basic cluster configuration).
func ClusterResources(opts Options) *Table {
	loops := opts.loops()
	t := &Table{
		ID:     "clusterres",
		Title:  "Cluster queue resources (unrolled, copy ops, partitioned)",
		Header: []string{"clusters", "private<=8", "ring<=8/dir", "both", "mean private", "mean ring", "max depth"},
	}
	type res struct {
		ok                bool
		priv, ring, depth int
	}
	results := sweep(opts, loops, clusterBindings, func(c compiled) res {
		return res{ok: c.Err == nil, priv: c.Private, ring: c.Ring, depth: c.Depth}
	})
	for i, nc := range machine.PaperClusterCounts {
		var ok, privOK, ringOK, bothOK, privSum, ringSum, depthMax int
		for _, row := range results {
			r := row[i]
			if !r.ok {
				continue
			}
			ok++
			privSum += r.priv
			ringSum += r.ring
			if r.priv <= machine.DefaultPrivateQueues {
				privOK++
			}
			if r.ring <= machine.DefaultRingQueues {
				ringOK++
			}
			if r.priv <= machine.DefaultPrivateQueues && r.ring <= machine.DefaultRingQueues {
				bothOK++
			}
			if r.depth > depthMax {
				depthMax = r.depth
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", nc),
			pct(privOK, ok),
			pct(ringOK, ok),
			pct(bothOK, ok),
			fmt.Sprintf("%.1f", float64(privSum)/float64(ok)),
			fmt.Sprintf("%.1f", float64(ringSum)/float64(ok)),
			fmt.Sprintf("%d", depthMax),
		})
	}
	t.Notes = append(t.Notes,
		"paper: 8 private + 16 ring queues (8 per direction) suffice for any machine model analysed; a small fraction of loops needs more")
	return t
}
