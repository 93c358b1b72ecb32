package exp

import (
	"fmt"

	"vliwq/internal/copyins"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
)

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
	for _, nc := range machine.PaperClusterCounts {
		single := machine.SingleCluster(3 * nc)
		clustered := machine.Clustered(nc)
		type res struct {
			ok     bool
			delta  int
			failed bool
		}
		compSingle := opts.compiler(binding{spec: single.Spec(), unroll: true, shape: copyins.Tree})
		compClustered := opts.compiler(binding{spec: clustered.Spec(), unroll: true, shape: copyins.Tree})
		results := forEach(loops, opts.workers(), func(l *ir.Loop) res {
			// The same transformed body is scheduled on both machines: their
			// total FU mixes match, so AutoFactor picks one factor for both.
			s1 := compSingle(l)
			if s1.Err != nil {
				return res{failed: true}
			}
			s2 := compClustered(l)
			if s2.Err != nil {
				return res{failed: true}
			}
			return res{ok: true, delta: s2.II - s1.II}
		})
		var ok, same, plus1, more, failed int
		for _, r := range results {
			if r.failed {
				failed++
				continue
			}
			if !r.ok {
				continue
			}
			ok++
			switch {
			case r.delta <= 0:
				same++
			case r.delta == 1:
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
	for _, nc := range machine.PaperClusterCounts {
		clustered := machine.Clustered(nc)
		type res struct {
			ok         bool
			priv, ring int
			depth      int
		}
		comp := opts.compiler(binding{spec: clustered.Spec(), unroll: true, shape: copyins.Tree})
		results := forEach(loops, opts.workers(), func(l *ir.Loop) res {
			c := comp(l)
			if c.Err != nil {
				return res{}
			}
			return res{ok: true, priv: c.Private, ring: c.Ring, depth: c.Depth}
		})
		var ok, privOK, ringOK, bothOK, privSum, ringSum, depthMax int
		for _, r := range results {
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
