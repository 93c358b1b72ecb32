// Command vliwsched compiles one innermost loop for a (possibly clustered)
// queue-register-file VLIW machine and prints the modulo schedule, the
// queue allocation and the headline metrics. The result is verified by
// cycle-accurate simulation against sequential execution unless -noverify
// is given.
//
// Usage:
//
//	vliwsched -kernel daxpy -machine clustered:4
//	vliwsched -machine single:6 -unroll loop.txt
//	vliwsched -dump-after unroll -unroll loop.txt   # stop early, print the artifact
//	vliwsched -dot loop.txt > ddg.dot
//
// The loop file format is documented in internal/ir (op/carried/mem/order
// directives); -kernel selects one of the built-in scientific kernels.
// -dump-after runs the staged pipeline (vliwq.Compiler.RunUntil) only
// through the named stage and prints that stage's artifact: the unrolled
// body, the post-copy-insertion dependence graph, or the raw schedule.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"vliwq"
	"vliwq/internal/copyins"
	"vliwq/internal/corpus"
	"vliwq/internal/frontend"
	"vliwq/internal/ir"
	"vliwq/internal/program"
	"vliwq/internal/sched"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vliwsched", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		machineSpec = fs.String("machine", "single:6", "target machine: single:<fus> or clustered:<clusters>")
		kernel      = fs.String("kernel", "", "compile a built-in kernel instead of a file (see -list)")
		list        = fs.Bool("list", false, "list built-in kernels and exit")
		doUnroll    = fs.Bool("unroll", false, "apply automatic loop unrolling")
		factor      = fs.Int("factor", 0, "force a specific unroll factor (>= 2)")
		shape       = fs.String("shape", "tree", "copy fanout shape: tree or chain")
		noVerify    = fs.Bool("noverify", false, "skip simulator verification")
		dot         = fs.Bool("dot", false, "print the dependence graph in DOT format and exit")
		showKernel  = fs.Bool("schedule", true, "print the kernel schedule table")
		emit        = fs.Bool("emit", false, "emit the complete pipelined program (prologue/kernel/epilogue)")
		moves       = fs.Bool("moves", false, "enable the move-operation extension on clustered machines")
		commLat     = fs.Int("commlat", 0, "inter-cluster communication latency in cycles")
		effort      = fs.String("effort", "fast", "scheduler effort: fast, balanced, exhaustive (tries every partition strategy in turn) or optimal (adds a branch-and-bound optimality certificate)")
		dumpAfter   = fs.String("dump-after", "", "stop after a pipeline stage and print its artifact: "+strings.Join(vliwq.StageNames(), ", "))
		fromTrace   = fs.String("from-trace", "", "schedule a whole RISC instruction trace (every recovered loop region) instead of one loop")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "vliwsched:", err)
		return 1
	}

	if *fromTrace != "" {
		// Whole-program mode: lift every region and schedule the program
		// through internal/program. -effort selects the hard-region tier
		// when given explicitly; the default keeps program's certified
		// default (hard regions compile at effort optimal).
		hardEffort := ""
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "effort" {
				hardEffort = *effort
			}
		})
		return runTrace(*fromTrace, *machineSpec, hardEffort, *noVerify, stdout, fail)
	}

	if *list {
		for _, k := range corpus.Kernels() {
			fmt.Fprintf(stdout, "%-12s %2d ops, trip %d\n", k.Name, len(k.Ops), k.TripCount())
		}
		return 0
	}

	loop, err := loadLoop(*kernel, fs.Arg(0), stdin)
	if err != nil {
		return fail(err)
	}
	if *dot {
		if err := ir.WriteDot(stdout, loop); err != nil {
			return fail(err)
		}
		return 0
	}

	cfg, err := vliwq.ParseMachine(*machineSpec)
	if err != nil {
		return fail(err)
	}
	cfg.AllowMoves = *moves
	cfg.CommLatency = *commLat
	eff, err := vliwq.ParseEffort(*effort)
	if err != nil {
		return fail(err)
	}

	opts := vliwq.Options{
		Machine:      cfg,
		Unroll:       *doUnroll,
		UnrollFactor: *factor,
		SkipVerify:   *noVerify,
		Effort:       eff,
	}
	if *shape == "chain" {
		opts.CopyShape = copyins.Chain
	}

	// -dump-after drives the request-centric staged API: the canonical
	// Request for this invocation through Compiler.RunUntil — the same
	// path vliwd serves. The full-compile path below stays on the
	// loop-first shim instead: it already holds the parsed loop, and the
	// Request's text round trip would rename anonymous ops (FormatLoop
	// must name them to reference their dependences), changing the
	// printed kernel table for kernels like fir5. Both paths run the
	// identical staged engine.
	if *dumpAfter != "" {
		stage, err := vliwq.ParseStage(*dumpAfter)
		if err != nil {
			return fail(err)
		}
		compiler := vliwq.NewCompiler(vliwq.CompilerConfig{})
		res, err := compiler.RunUntil(context.Background(), vliwq.NewRequest(loop, opts), stage)
		if err != nil {
			return fail(err)
		}
		return dumpStage(stdout, stderr, res, stage, &cfg)
	}

	res, err := vliwq.Compile(loop, opts)
	if err != nil {
		return fail(err)
	}
	fmt.Fprint(stdout, res.Report())
	if !*noVerify {
		fmt.Fprintln(stdout, "  verified: pipelined execution matches sequential reference")
	}
	if *showKernel {
		fmt.Fprintln(stdout, "\nkernel (cycle mod II, per cluster; op@issue-cycle):")
		fmt.Fprint(stdout, res.KernelSchedule())
	}
	fmt.Fprintln(stdout, "\nqueue allocation:")
	for _, f := range res.Alloc.Files {
		fmt.Fprintf(stdout, "  %-12v %d queues, depths %v\n", f.Loc, f.Queues, f.MaxOccupancy)
	}
	if *emit {
		fmt.Fprintln(stdout, "\npipelined program:")
		if err := sched.EmitPipelined(stdout, res.Sched); err != nil {
			return fail(err)
		}
	}
	return 0
}

// runTrace schedules every loop region of a RISC trace as one program
// (DESIGN.md §15) and prints the merged, verified program schedule.
func runTrace(path, machineSpec, hardEffort string, noVerify bool, stdout io.Writer, fail func(error) int) int {
	f, err := os.Open(path)
	if err != nil {
		return fail(err)
	}
	defer f.Close()
	p, err := frontend.Parse(f)
	if err != nil {
		return fail(err)
	}
	s, err := program.ScheduleProgram(context.Background(), p, program.Options{
		Machine:    machineSpec,
		HardEffort: hardEffort,
		SkipVerify: noVerify,
	})
	if err != nil {
		return fail(err)
	}
	if err := s.Verify(); err != nil {
		return fail(err)
	}
	fmt.Fprint(stdout, s.Render())
	if !noVerify {
		fmt.Fprintln(stdout, "\nverified: every region's pipelined execution matches sequential reference")
	}
	return 0
}

// dumpStage prints the artifact the staged run stopped at: the loop body
// after unrolling or copy insertion (in the text format, ready to feed
// back into the tool), the raw schedule, the queue allocation, or — after
// a full verify run — the standard report.
func dumpStage(stdout, stderr io.Writer, res *vliwq.Result, stage vliwq.Stage, cfg *vliwq.Machine) int {
	fmt.Fprintf(stdout, "# after %s on %s\n", stage, cfg.Spec())
	switch stage {
	case vliwq.StageUnroll:
		fmt.Fprintf(stdout, "# unrolled x%d (%d ops)\n", res.Unrolled, len(res.AfterUnroll.Ops))
		fmt.Fprint(stdout, vliwq.FormatLoop(res.AfterUnroll))
	case vliwq.StageCopies:
		fmt.Fprintf(stdout, "# dependence graph after copy insertion (%d ops)\n", len(res.AfterCopies.Ops))
		fmt.Fprint(stdout, vliwq.FormatLoop(res.AfterCopies))
	case vliwq.StageSchedule:
		s := res.Sched
		fmt.Fprintf(stdout, "# II=%d (ResMII=%d RecMII=%d) strategy=%s\n", s.II, s.ResMII, s.RecMII, res.Strategy)
		fmt.Fprint(stdout, res.KernelSchedule())
	case vliwq.StageAlloc:
		fmt.Fprintf(stdout, "# queues: private<=%d per cluster, ring<=%d per link\n", res.Queues, res.RingQueues)
		for _, f := range res.Alloc.Files {
			fmt.Fprintf(stdout, "%-12v %d queues, depths %v\n", f.Loc, f.Queues, f.MaxOccupancy)
		}
	case vliwq.StageVerify:
		fmt.Fprint(stdout, res.Report())
	default:
		fmt.Fprintf(stderr, "vliwsched: no artifact for stage %s\n", stage)
		return 1
	}
	return 0
}

func loadLoop(kernel, path string, stdin io.Reader) (*vliwq.Loop, error) {
	if kernel != "" {
		l := corpus.KernelByName(kernel)
		if l == nil {
			return nil, fmt.Errorf("unknown kernel %q (use -list)", kernel)
		}
		return l, nil
	}
	if path == "" || path == "-" {
		return vliwq.ReadLoop(stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return vliwq.ReadLoop(f)
}
