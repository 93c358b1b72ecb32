// Package program schedules whole multi-loop programs lifted from RISC
// traces (internal/frontend). It is the partitioning layer above the
// single-loop engine: every recovered region is classified as trivial or
// hard, trivial regions take the fast tier, hard regions go through the
// portfolio/certified tiers, and the per-region schedules are merged back
// into one program schedule whose total order is verified. All per-region
// compiles run as canonical vliwq.Requests through one vliwq.Compiler
// session per call, each under the caller's context, and
// Result.Bound certificates apply to each region exactly as they would to
// a standalone request — a region's compile is byte-identical to compiling
// its lifted loop alone, and the same Requests can be posted verbatim to a
// vliwd /batch endpoint, whose service adds its exact and structural cache
// layers (see DESIGN.md §15).
package program

import (
	"context"
	"fmt"
	"strings"

	"vliwq"
	"vliwq/internal/frontend"
	"vliwq/internal/ir"
	"vliwq/internal/sched"
)

// DefaultMachine is the target when Options.Machine is empty: the paper's
// smallest clustered configuration.
const DefaultMachine = "clustered:4"

// hardOps is the region-size floor for the hard class.
const hardOps = 10

// Options configures a whole-program schedule.
type Options struct {
	// Machine is the target machine spec ("" = DefaultMachine).
	Machine string
	// HardEffort is the tier hard regions compile with ("" = optimal, so
	// hard regions carry Bound certificates by default). Trivial regions
	// compile at fast.
	HardEffort string
	// Workers bounds the per-region compile parallelism (0 = GOMAXPROCS).
	Workers int
	// SkipVerify skips the per-region simulator verification.
	SkipVerify bool
}

func (o Options) withDefaults() Options {
	if o.Machine == "" {
		o.Machine = DefaultMachine
	}
	if o.HardEffort == "" {
		o.HardEffort = "optimal"
	}
	return o
}

// Hard classifies a lifted region: hard regions are big enough to be
// worth the expensive tiers (at least 10 ops) AND resource-bound (RecMII
// <= ResMII — no recurrence already dictates the II, so cluster assignment
// quality and the certified search have room to matter). Small or
// recurrence-bound regions gain nothing from the expensive tiers: the
// fast tier already meets their RecMII-dominated lower bound.
func Hard(l *ir.Loop, m vliwq.Machine) bool {
	if len(l.Ops) < hardOps {
		return false
	}
	res, err := sched.ResMII(l, m)
	if err != nil {
		return false
	}
	return sched.RecMII(l) <= res
}

// Requests maps every region of p onto its canonical compile request:
// the region's lifted loop in the text format, the target machine, and
// the effort tier its class selects. The slice is exactly what
// ScheduleProgram compiles, and — wrapped in a BatchRequest — what a
// vliwd /batch endpoint serves, making traces first-class service
// workloads.
func Requests(p *frontend.Program, opts Options) ([]vliwq.Request, error) {
	reqs, _, err := classify(p, opts.withDefaults())
	return reqs, err
}

func classify(p *frontend.Program, o Options) ([]vliwq.Request, []bool, error) {
	m, err := vliwq.ParseMachine(o.Machine)
	if err != nil {
		return nil, nil, fmt.Errorf("program: %v", err)
	}
	reqs := make([]vliwq.Request, len(p.Regions))
	hard := make([]bool, len(p.Regions))
	for i, r := range p.Regions {
		hard[i] = Hard(r.Loop, m)
		eff := "fast"
		if hard[i] {
			eff = o.HardEffort
		}
		reqs[i] = vliwq.Request{
			Loop:       vliwq.FormatLoop(r.Loop),
			Machine:    o.Machine,
			Effort:     eff,
			SkipVerify: o.SkipVerify,
		}
	}
	return reqs, hard, nil
}

// RegionSchedule is one region's slice of the program schedule.
type RegionSchedule struct {
	Region  *frontend.Region
	Hard    bool
	Request vliwq.Request
	Result  *vliwq.Result
}

// Schedule is a whole-program schedule: every region compiled for one
// machine, in program order, with the glue instructions left sequential
// between them.
type Schedule struct {
	Program *frontend.Program
	Machine string // canonical spec
	Regions []RegionSchedule
}

// ScheduleProgram compiles every region of p and merges the results. Any
// region error fails the whole program — a partial program schedule is
// not a schedule.
func ScheduleProgram(ctx context.Context, p *frontend.Program, opts Options) (*Schedule, error) {
	o := opts.withDefaults()
	if len(p.Regions) == 0 {
		return nil, fmt.Errorf("program: trace %q has no loop regions", p.Name)
	}
	reqs, hard, err := classify(p, o)
	if err != nil {
		return nil, err
	}
	m, _ := vliwq.ParseMachine(o.Machine)
	results := vliwq.NewCompiler(vliwq.CompilerConfig{Workers: o.Workers}).RunBatch(ctx, reqs)
	s := &Schedule{Program: p, Machine: m.Spec(), Regions: make([]RegionSchedule, len(reqs))}
	for i, br := range results {
		if br.Err != nil {
			return nil, fmt.Errorf("program: region %q: %v", p.Regions[i].Label, br.Err)
		}
		s.Regions[i] = RegionSchedule{Region: p.Regions[i], Hard: hard[i], Request: reqs[i], Result: br.Result}
	}
	return s, nil
}

// Verify checks the merged schedule's total order: regions must appear in
// program order without overlap, every region must carry a schedule whose
// loop is skeleton-identical to the lifted region (the compile answered
// the region actually asked), and each region's kernel must satisfy its
// dependence graph (sched.Schedule.Verify, the dependence-order check).
func (s *Schedule) Verify() error {
	if len(s.Regions) != len(s.Program.Regions) {
		return fmt.Errorf("program: schedule covers %d of %d regions", len(s.Regions), len(s.Program.Regions))
	}
	last := -1
	for _, rs := range s.Regions {
		r := rs.Region
		if r.Start <= last {
			return fmt.Errorf("program: region %q out of program order", r.Label)
		}
		last = r.End
		if rs.Result == nil || rs.Result.Sched == nil {
			return fmt.Errorf("program: region %q has no schedule", r.Label)
		}
		if ir.Skeleton(rs.Result.Input) != ir.Skeleton(r.Loop) {
			return fmt.Errorf("program: region %q: compiled loop does not match the lifted region", r.Label)
		}
		if err := rs.Result.Sched.Verify(); err != nil {
			return fmt.Errorf("program: region %q: %v", r.Label, err)
		}
	}
	return nil
}

// SumII is the merged schedule's steady-state cost: one kernel iteration
// of every region.
func (s *Schedule) SumII() int {
	t := 0
	for _, rs := range s.Regions {
		t += rs.Result.II
	}
	return t
}

// CopyOps counts the inter-cluster copy traffic (copy and move ops) the
// partitioner inserted across all regions.
func (s *Schedule) CopyOps() int {
	t := 0
	for _, rs := range s.Regions {
		for _, op := range rs.Result.Sched.Loop.Ops {
			if op.Kind == ir.KCopy || op.Kind == ir.KMove {
				t++
			}
		}
	}
	return t
}

// MaxQueues is the register-pressure proxy: the largest private queue
// count any region needs in any cluster.
func (s *Schedule) MaxQueues() int {
	q := 0
	for _, rs := range s.Regions {
		if rs.Result.Queues > q {
			q = rs.Result.Queues
		}
	}
	return q
}

// MaxRingQueues is the largest ring (inter-cluster) queue count any
// region needs on any link.
func (s *Schedule) MaxRingQueues() int {
	q := 0
	for _, rs := range s.Regions {
		if rs.Result.RingQueues > q {
			q = rs.Result.RingQueues
		}
	}
	return q
}

// HardCount reports how many regions classified hard.
func (s *Schedule) HardCount() int {
	n := 0
	for _, rs := range s.Regions {
		if rs.Hard {
			n++
		}
	}
	return n
}

// Render prints the merged program schedule deterministically: program
// header, sequential glue, and every region's class, request effort,
// headline metrics and kernel table, with a steady-state summary line.
func (s *Schedule) Render() string {
	var b strings.Builder
	glue := s.Program.Glue()
	fmt.Fprintf(&b, "program %s on %s: %d regions (%d hard), %d glue instructions\n",
		s.Program.Name, s.Machine, len(s.Regions), s.HardCount(), len(glue))
	if len(glue) > 0 {
		b.WriteString("\nglue (sequential):\n")
		for _, in := range glue {
			fmt.Fprintf(&b, "  %s\n", in.String())
		}
	}
	for _, rs := range s.Regions {
		class := "trivial"
		if rs.Hard {
			class = "hard"
		}
		fmt.Fprintf(&b, "\nregion %s [%s, effort=%s]: %d ops, %d deps (%d discharged)\n",
			rs.Region.Label, class, rs.Request.Effort, len(rs.Region.Loop.Ops),
			len(rs.Region.Deps), rs.Region.Discharged)
		b.WriteString(indent(rs.Result.Report(), "  "))
		b.WriteString(indent(rs.Result.KernelSchedule(), "  "))
	}
	fmt.Fprintf(&b, "\ntotal: sum II=%d, copy ops=%d, queues<=%d, ring<=%d\n",
		s.SumII(), s.CopyOps(), s.MaxQueues(), s.MaxRingQueues())
	return b.String()
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		if l != "" {
			lines[i] = pad + l
		}
	}
	return strings.Join(lines, "\n") + "\n"
}
