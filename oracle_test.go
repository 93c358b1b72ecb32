package vliwq

import (
	"fmt"
	"strings"

	"vliwq/internal/copyins"
	"vliwq/internal/ir"
)

// Test-only oracles: the fmt-based request keys and renderers that
// Prepared and the allocation-free Report/KernelSchedule replaced, kept
// verbatim (apart from their names) so the tests can hold the rewrites to
// byte-identical output.

func oracleCanonical(r Request) string {
	n := r
	// Ignore the error: an invalid request keys on whatever Normalize left
	// behind, which is still a pure function of the input.
	_ = n.Normalize()
	var b strings.Builder
	b.Grow(len(n.Loop) + 64)
	fmt.Fprintf(&b, "rq1;m=%s;u=%t;f=%d;s=%s;mv=%t;cl=%d;sv=%t;e=%s;",
		n.Machine, n.Unroll, n.UnrollFactor, n.CopyShape,
		n.AllowMoves, n.CommLatency, n.SkipVerify, n.Effort)
	b.WriteString(n.Loop)
	return b.String()
}

func oracleStructuralKey(r Request) string {
	n := r
	if err := n.Normalize(); err != nil {
		return oracleCanonical(r)
	}
	l, err := ir.ParseString(n.Loop)
	if err != nil {
		return oracleCanonical(r)
	}
	var b strings.Builder
	b.Grow(160)
	fmt.Fprintf(&b, "sq1;m=%s;u=%t;f=%d;s=%s;mv=%t;cl=%d;sv=%t;e=%s;fp=%s",
		n.Machine, n.Unroll, n.UnrollFactor, n.CopyShape,
		n.AllowMoves, n.CommLatency, n.SkipVerify, n.Effort, ir.Fingerprint(l))
	return b.String()
}

func oracleReport(r *Result) string {
	var b strings.Builder
	s := r.Sched
	fmt.Fprintf(&b, "loop %s on %s\n", r.Input.Name, s.Machine.Name)
	if r.Unrolled > 1 {
		fmt.Fprintf(&b, "  unrolled x%d (%d ops)\n", r.Unrolled, len(s.Loop.Ops))
	}
	fmt.Fprintf(&b, "  II=%d (ResMII=%d RecMII=%d)  stages=%d  length=%d\n",
		s.II, s.ResMII, s.RecMII, r.StageCount, s.Length())
	if s.Stats.StrategiesTried > 0 {
		// Only portfolio runs print this line, so fast-effort output stays
		// byte-identical to the historical reports (and their goldens).
		fmt.Fprintf(&b, "  portfolio: %d strategies raced, %s won\n",
			s.Stats.StrategiesTried, s.Strategy)
	}
	if r.Bound.Lower > 0 {
		// Only the optimal tier carries a certificate; other tiers' reports
		// stay byte-identical.
		status := "unproved"
		if r.Bound.Optimal {
			status = "proved"
		} else if r.Bound.DeadlineCut {
			status = "deadline-cut"
		}
		fmt.Fprintf(&b, "  optimal: lower-bound=%d %s (pruned %d nodes)\n",
			r.Bound.Lower, status, s.Stats.PrunedNodes)
	}
	fmt.Fprintf(&b, "  IPC static=%.2f dynamic=%.2f\n", r.IPCStatic, r.IPCDynamic)
	fmt.Fprintf(&b, "  queues: private<=%d per cluster, ring<=%d per link, max depth %d\n",
		r.Queues, r.RingQueues, r.Alloc.MaxDepth())
	return b.String()
}

func oracleKernelSchedule(r *Result) string {
	s := r.Sched
	rows := make([][]string, s.II)
	for i := range rows {
		rows[i] = make([]string, s.Machine.NumClusters())
	}
	for id, op := range s.Loop.Ops {
		row := s.Time[id] % s.II
		c := s.Cluster[id]
		cell := &rows[row][c]
		if *cell != "" {
			*cell += " "
		}
		name := op.Name
		if name == "" {
			name = fmt.Sprintf("%s#%d", op.Kind, op.ID)
		}
		*cell += fmt.Sprintf("%s@%d", name, s.Time[id])
	}
	var b strings.Builder
	for row := 0; row < s.II; row++ {
		fmt.Fprintf(&b, "cycle %2d |", row)
		for c := 0; c < s.Machine.NumClusters(); c++ {
			fmt.Fprintf(&b, " %-30s |", rows[row][c])
		}
		b.WriteString("\n")
	}
	return b.String()
}

func oracleOptions(r Request) (Options, error) {
	n := r
	if err := n.Normalize(); err != nil {
		return Options{}, err
	}
	m, err := ParseMachine(n.Machine)
	if err != nil {
		return Options{}, err
	}
	m.AllowMoves = n.AllowMoves
	m.CommLatency = n.CommLatency
	opts := Options{
		Machine:      m,
		Unroll:       n.Unroll,
		UnrollFactor: n.UnrollFactor,
		SkipVerify:   n.SkipVerify,
	}
	if n.CopyShape == "chain" {
		opts.CopyShape = copyins.Chain
	}
	eff, err := ParseEffort(n.Effort)
	if err != nil {
		return Options{}, err
	}
	opts.Sched.Effort = eff
	return opts, nil
}
