// Package vliwq reproduces "Partitioned Schedules for Clustered VLIW
// Architectures" (Fernandes, Llosa, Topham — IPPS/SPDP 1998): modulo
// scheduling of innermost loops onto clustered VLIW machines whose register
// files are FIFO queues, with copy-operation insertion for multi-consumer
// values, loop unrolling, ring-partitioned scheduling, and queue allocation
// via the Q-Compatibility test.
//
// This root package is the high-level facade and the one compile engine;
// the building blocks live in internal packages (ir, machine, sched,
// queue, copyins, unroll, sim, metrics). The experiment sweeps
// (internal/exp), the service and the tools all compile through the
// engine.
//
// The primary API is request-centric: a Request is the canonical encoding
// of one compilation (loop text plus every knob, with a deterministic
// Canonical() exact key and a StructuralKey() isomorphism-class key that
// every cache and router shares, both computed once per request by
// Prepare), and a Compiler is a configured session that runs Requests:
//
//	c := vliwq.NewCompiler(vliwq.CompilerConfig{})
//	res, err := c.Run(ctx, vliwq.Request{Loop: src, Machine: "clustered:4", Unroll: true})
//	fmt.Println(res.Report())
//
// Run returns the schedule, the queue allocation and the headline metrics,
// after verifying the result on the cycle-accurate simulator; RunUntil
// stops the pipeline at a chosen Stage and exposes its artifacts, and
// RunBatch fans a request set over a worker pool. The loop-first helpers
// Compile and CompileContext remain as thin shims over the same staged
// engine, and CompileEach runs it for one loop under several option sets,
// building each transformed body once for all of them:
//
//	loop, _ := vliwq.ParseLoop(src)
//	res, err := vliwq.Compile(loop, vliwq.Options{Machine: vliwq.Clustered(4), Unroll: true})
package vliwq

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"vliwq/internal/copyins"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
	"vliwq/internal/metrics"
	"vliwq/internal/queue"
	"vliwq/internal/sched"
	"vliwq/internal/sim"
	"vliwq/internal/unroll"
)

// Loop is the compiler's input: an innermost loop body as a dependence
// graph. Build one with ParseLoop or the internal/ir builders.
type Loop = ir.Loop

// Machine describes the target configuration.
type Machine = machine.Config

// SingleCluster returns the paper's single-cluster baseline machine with n
// computation FUs (plus copy units).
func SingleCluster(n int) Machine { return machine.SingleCluster(n) }

// Clustered returns the paper's clustered machine: n clusters of
// {1 L/S, 1 ADD, 1 MUL, 1 COPY}, 8 private queues each, connected by a
// bidirectional ring with 8 communication queues per direction.
func Clustered(n int) Machine { return machine.Clustered(n) }

// ParseLoop reads a loop in the text format (see internal/ir: `op`,
// `carried`, `mem`, `order` directives).
func ParseLoop(src string) (*Loop, error) { return ir.ParseString(src) }

// FormatLoop renders a loop back into the text format ParseLoop reads.
func FormatLoop(l *Loop) string { return ir.FormatString(l) }

// MaxMachineSize caps the FU count of a "single:<fus>" spec. The paper's
// machines top out at 18 FUs / 6 clusters; the cap is generous headroom
// that still keeps a hostile spec from sizing allocations — ParseMachine is
// the service's trust boundary. A "clustered:<n>" spec is held to the
// tighter machine.MaxClusters, the widest ring the scheduler accepts.
const MaxMachineSize = 512

// ParseMachine parses a machine spec of the form "single:<fus>" or
// "clustered:<clusters>" — the notation cmd/vliwsched, cmd/vliwload and the
// vliwd service share.
func ParseMachine(spec string) (Machine, error) {
	kind, arg, ok := strings.Cut(spec, ":")
	if !ok {
		return Machine{}, fmt.Errorf("bad machine spec %q (want single:<n> or clustered:<n>)", spec)
	}
	n, err := strconv.Atoi(arg)
	if err != nil || n < 1 {
		return Machine{}, fmt.Errorf("bad machine size %q", arg)
	}
	if n > MaxMachineSize {
		return Machine{}, fmt.Errorf("machine size %d exceeds the %d limit", n, MaxMachineSize)
	}
	switch kind {
	case "single":
		return SingleCluster(n), nil
	case "clustered":
		if n > machine.MaxClusters {
			return Machine{}, fmt.Errorf("machine size %d exceeds the %d-cluster limit", n, machine.MaxClusters)
		}
		return Clustered(n), nil
	}
	return Machine{}, fmt.Errorf("unknown machine kind %q", kind)
}

// ReadLoop reads a loop in the text format from r.
func ReadLoop(r io.Reader) (*Loop, error) { return ir.Parse(r) }

// Effort selects the scheduler's search breadth: how many partition
// strategies the portfolio scheduler tries per candidate II (see
// internal/sched), and — at EffortOptimal — whether the exact
// branch-and-bound backend certifies the result. The zero value,
// EffortFast, is the single baseline heuristic — bit-for-bit the
// historical scheduler.
type Effort = sched.Effort

// Effort levels, re-exported for callers configuring Options.Effort.
const (
	EffortFast       = sched.EffortFast
	EffortBalanced   = sched.EffortBalanced
	EffortExhaustive = sched.EffortExhaustive
	EffortOptimal    = sched.EffortOptimal
)

// Bound is the optimality certificate an EffortOptimal compilation carries
// in Result.Bound: the proved lower bound on II and whether the achieved
// II was proved equal to it. See DESIGN.md §14 for the contract.
type Bound = sched.Bound

// ParseEffort maps an effort name ("fast", "balanced", "exhaustive",
// "optimal"; "" means fast) to its value. The error lists the valid names
// sorted — the service and the cmds surface it verbatim.
func ParseEffort(name string) (Effort, error) { return sched.ParseEffort(name) }

// Options control the compilation pipeline.
type Options struct {
	// Machine is the target; the zero value selects SingleCluster(6).
	Machine Machine
	// Unroll enables automatic loop unrolling (factor chosen to minimize
	// the per-original-iteration II bound, capped at 8).
	Unroll bool
	// UnrollFactor forces a specific factor (>= 2) instead of the
	// automatic choice; implies unrolling.
	UnrollFactor int
	// CopyShape selects the fanout topology for copy insertion;
	// the zero value is the balanced tree. copyins.None, which the
	// experiment sweeps use for the copies-off baseline, inserts nothing
	// and has no Request spelling.
	CopyShape copyins.Shape
	// SkipVerify skips the simulator-based verification pass (useful for
	// bulk experiments; the paper-scale harness verifies samples instead).
	// Verification replays min(trip, 64, the schedule's horizon)
	// iterations: past its horizon a modulo schedule repeats itself, so no
	// longer replay can reach another verdict (DESIGN.md §6).
	SkipVerify bool
	// Effort selects the scheduler's search breadth; the zero value is
	// EffortFast.
	Effort Effort
}

// Result is a compiled loop: the transformed body, its modulo schedule,
// the queue allocation, and derived metrics. A full run (Compile,
// Compiler.Run) populates every field; a staged run (Compiler.RunUntil)
// populates only the fields of the stages that executed — Sched is nil
// before StageSchedule, Alloc and the headline metrics before StageAlloc —
// and Report/KernelSchedule require at least StageAlloc/StageSchedule
// respectively.
type Result struct {
	Input    *Loop // the loop as given
	Unrolled int   // unroll factor applied (1 = none)
	Sched    *sched.Schedule
	Alloc    *queue.Allocation

	// Per-stage artifacts: the loop body as each transformation stage left
	// it. AfterUnroll is the input itself when no unrolling applied;
	// AfterCopies is the dependence graph the scheduler consumed (when the
	// move-op extension rewrites it further, Sched.Loop is the final
	// body). Shared pointers — treat as read-only.
	AfterUnroll *Loop
	AfterCopies *Loop

	// Stages records the wall-clock cost of every stage that executed, in
	// execution order — the observability hook the vliwd service
	// aggregates into /stats (stage_nanos) and vliwexp's -stage-times
	// sweeps report.
	Stages []StageTiming

	// Headline metrics.
	II         int
	MII        int
	StageCount int
	IPCStatic  float64
	IPCDynamic float64
	Queues     int // max private queues used in any cluster
	RingQueues int // max ring queues used on any directed link

	// Strategy names the cluster-assignment strategy that produced the
	// schedule ("baseline" unless a portfolio tried alternatives), so
	// portfolio wins are observable wherever results flow — reports, the
	// service's responses and /stats, the experiment sweeps.
	Strategy string

	// Bound is the optimality certificate (EffortOptimal only; the zero
	// value — Lower == 0 — everywhere else, keeping historical outputs
	// byte-identical). Bound.Optimal=true is a proof that no schedule with
	// a smaller II exists for this loop on this machine.
	Bound Bound
}

// Compile runs the full pipeline on one loop: (optional) unrolling, copy
// insertion, modulo scheduling (partitioned when the machine has several
// clusters), queue allocation, and — unless disabled — end-to-end
// verification against sequential execution on the cycle-accurate QRF
// simulator.
func Compile(l *Loop, opts Options) (*Result, error) {
	return CompileContext(context.Background(), l, opts)
}

// CompileContext is Compile with cancellation: the context is checked
// between pipeline stages and during verification, so a cancelled request
// abandons the remaining (scheduling, allocation, verification) work and
// returns ctx.Err(). Long batch runs — the service's /batch endpoint,
// Compiler.RunBatch — rely on this to stop promptly when the client goes
// away.
//
// CompileContext runs the staged engine Compiler sessions drive
// (compileStaged): both paths run identical code, which is what pins
// Compiler.Run output byte-for-byte to the historical Compile output. The
// vliwd service compiles each request through it, on the loop its
// Prepared parsed.
func CompileContext(ctx context.Context, l *Loop, opts Options) (*Result, error) {
	return compileStaged(ctx, l, opts, StageVerify)
}

// CompileEach compiles one loop under each option set, in order: out[i]
// holds what CompileContext(ctx, l, opts[i]) returns, error text included.
// The loop is validated once, and options that apply the same unroll
// factor and copy shape share one transformed body, built by the first of
// them: their Results' AfterUnroll and AfterCopies are the same read-only
// pointers, and the unroll and copy stages of every later one record in
// Result.Stages only the time to find it. Scheduling, queue allocation,
// their checks and, unless skipped, verification run for every option.
// The experiment sweeps (internal/exp) compile each loop under all of a
// figure's machines through it.
func CompileEach(ctx context.Context, l *Loop, opts []Options) []BatchResult {
	out := make([]BatchResult, len(opts))
	e := engine{l: l}
	for i, o := range opts {
		out[i].Result, out[i].Err = e.compile(ctx, o, StageVerify)
	}
	return out
}

// compileStaged compiles one loop under one option set, stopping after
// `until` (StageVerify = the full pipeline; SkipVerify ends a full run at
// StageAlloc): Compiler sessions and CompileContext call it, and
// CompileEach runs the same engine over several option sets.
func compileStaged(ctx context.Context, l *Loop, opts Options, until Stage) (*Result, error) {
	e := engine{l: l}
	return e.compile(ctx, opts, until)
}

// engine is the pipeline engine, the one place outside tests and examples
// that runs the stage functions: Compiler sessions, the loop-first entries
// and the experiment sweeps (internal/exp, through CompileEach with
// SkipVerify) all reach it. An engine compiles one loop, under as many
// option sets as its caller asks for. It validates the loop on its first
// compile and keeps every body it transforms, so a later compile that
// applies the same unroll factor and copy shape reuses that body instead
// of building it again.
type engine struct {
	l         *Loop
	validated bool
	err       error  // l.Validate's verdict, once validated
	unrolled  []body // the unrolled bodies, one per factor above 1
	copied    []body // the bodies after copy insertion, one per (factor, shape)
}

// body is a transformed loop body and the transformation that made it.
type body struct {
	factor int
	shape  copyins.Shape // unused for an unrolled body
	loop   *Loop
}

// compile runs the stages in order — unroll, copy insertion, scheduling,
// queue allocation, verification — stamping each executed stage's
// wall-clock cost into Result.Stages and its artifact into the Result, and
// stops after `until`. The context is checked on entry, at every stage
// boundary from scheduling on (schedule, alloc, verify), inside queue
// allocation (every 2,048 lifetimes placed, and once per queue checked) and
// once per simulated window during verification — the points where a
// propagated request deadline cancels abandoned work.
//
// EffortOptimal inverts that contract: the deadline bounds the optimality
// proof, never the compilation. The scheduler's anytime ladder observes ctx
// itself and returns its best incumbent with Bound.DeadlineCut set, and the
// pipeline's own checks are skipped (allocation and verification run to
// completion) so even an already-expired context yields a complete (and
// still verified) result rather than an error — the serving layer turns
// that into a 200 with bound.optimal=false instead of a timeout.
func (e *engine) compile(ctx context.Context, opts Options, until Stage) (*Result, error) {
	l := e.l
	if l == nil {
		return nil, fmt.Errorf("vliwq: nil loop")
	}
	anytime := opts.Effort == EffortOptimal
	if err := ctx.Err(); err != nil && !anytime {
		return nil, err
	}
	cfg := opts.Machine
	if cfg.NumClusters() == 0 {
		cfg = SingleCluster(6)
	}
	if !e.validated {
		e.err, e.validated = l.Validate(), true
	}
	if e.err != nil {
		return nil, e.err
	}
	res := &Result{Input: l, Unrolled: 1}
	stamp := func(st Stage, t0 time.Time) {
		res.Stages = append(res.Stages, StageTiming{Stage: st, Duration: time.Since(t0)})
	}

	t0 := time.Now()
	factor := 1
	switch {
	case opts.UnrollFactor >= 2:
		factor = opts.UnrollFactor
	case opts.Unroll:
		factor = unroll.AutoFactor(l, cfg)
	}
	work, err := e.unroll(factor)
	if err != nil {
		return nil, err
	}
	res.Unrolled = factor
	res.AfterUnroll = work
	stamp(StageUnroll, t0)
	if until <= StageUnroll {
		return res, nil
	}

	t0 = time.Now()
	res.AfterCopies = e.insertCopies(work, factor, opts.CopyShape)
	stamp(StageCopies, t0)
	if until <= StageCopies {
		return res, nil
	}
	if err := ctx.Err(); err != nil && !anytime {
		return nil, err
	}

	t0 = time.Now()
	s, err := sched.ScheduleLoop(ctx, res.AfterCopies, cfg, opts.Effort)
	if err != nil {
		return nil, err
	}
	if err := s.Verify(); err != nil {
		return nil, fmt.Errorf("vliwq: internal error: %w", err)
	}
	res.Sched = s
	res.II = s.II
	res.MII = s.MII()
	res.StageCount = s.StageCount()
	res.Strategy = s.Strategy.String()
	res.Bound = s.Bound
	stamp(StageSchedule, t0)
	if until <= StageSchedule {
		return res, nil
	}

	if err := ctx.Err(); err != nil && !anytime {
		return nil, err
	}
	// Allocation and verification stop on the deadline, except at
	// EffortOptimal, whose result is allocated and verified whatever its
	// deadline.
	sctx := ctx
	if anytime {
		sctx = context.Background()
	}
	t0 = time.Now()
	alloc, err := queue.Allocate(sctx, s)
	if err != nil {
		return nil, err
	}
	if err := alloc.Verify(sctx); err != nil {
		if cerr := sctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("vliwq: internal error: %w", err)
	}
	res.Alloc = alloc
	res.Queues = alloc.MaxPrivateQueues()
	res.RingQueues = alloc.MaxRingQueues()
	trip := l.TripCount()
	iters := trip / factor
	if iters < 1 {
		iters = 1
	}
	res.IPCStatic = metrics.IPCStatic(s)
	res.IPCDynamic = metrics.IPCDynamic(s, iters)
	stamp(StageAlloc, t0)
	if until <= StageAlloc {
		return res, nil
	}

	if err := ctx.Err(); err != nil && !anytime {
		return nil, err
	}
	if !opts.SkipVerify {
		t0 = time.Now()
		// A replay past the schedule's horizon reaches the same verdict as
		// any longer one (DESIGN.md §6).
		n := min(s.Loop.TripCount(), 64, sim.Horizon(s))
		if err := sim.VerifyPipeline(sctx, s, alloc, n); err != nil {
			if cerr := sctx.Err(); cerr != nil {
				return nil, cerr
			}
			return nil, fmt.Errorf("vliwq: verification failed: %w", err)
		}
		stamp(StageVerify, t0)
	}
	return res, nil
}

// unroll returns the loop unrolled factor times (the loop itself at factor
// 1), building it on the first call for that factor. A failed unroll is
// not kept, so every compile that asks for it gets the same error.
func (e *engine) unroll(factor int) (*Loop, error) {
	if factor <= 1 {
		return e.l, nil
	}
	for _, b := range e.unrolled {
		if b.factor == factor {
			return b.loop, nil
		}
	}
	u, err := unroll.Unroll(e.l, factor)
	if err != nil {
		return nil, err
	}
	e.unrolled = append(e.unrolled, body{factor: factor, loop: u})
	return u, nil
}

// insertCopies returns work, the body unroll built for factor, with copy
// operations inserted in the given shape, building it on the first call
// for that factor and shape.
func (e *engine) insertCopies(work *Loop, factor int, shape copyins.Shape) *Loop {
	for _, b := range e.copied {
		if b.factor == factor && b.shape == shape {
			return b.loop
		}
	}
	c := copyins.Insert(work, shape).Loop
	e.copied = append(e.copied, body{factor: factor, shape: shape, loop: c})
	return c
}

// BatchResult is the outcome for the request at the same index of a
// Compiler.RunBatch call: exactly one of Result and Err is set.
type BatchResult struct {
	Result *Result
	Err    error
}

// Report renders a human-readable summary of the compiled loop. Every
// structural cache hit renders it, so it appends into one buffer with
// strconv instead of going through fmt; the output is what the
// equivalent Fprintf verbs (%d, %s, %.2f) print.
func (r *Result) Report() string {
	s := r.Sched
	b := make([]byte, 0, 320)
	b = append(b, "loop "...)
	b = append(b, r.Input.Name...)
	b = append(b, " on "...)
	b = append(b, s.Machine.Name...)
	b = append(b, '\n')
	if r.Unrolled > 1 {
		b = append(b, "  unrolled x"...)
		b = strconv.AppendInt(b, int64(r.Unrolled), 10)
		b = append(b, " ("...)
		b = strconv.AppendInt(b, int64(len(s.Loop.Ops)), 10)
		b = append(b, " ops)\n"...)
	}
	b = append(b, "  II="...)
	b = strconv.AppendInt(b, int64(s.II), 10)
	b = append(b, " (ResMII="...)
	b = strconv.AppendInt(b, int64(s.ResMII), 10)
	b = append(b, " RecMII="...)
	b = strconv.AppendInt(b, int64(s.RecMII), 10)
	b = append(b, ")  stages="...)
	b = strconv.AppendInt(b, int64(r.StageCount), 10)
	b = append(b, "  length="...)
	b = strconv.AppendInt(b, int64(s.Length()), 10)
	b = append(b, '\n')
	if s.Stats.StrategiesTried > 0 {
		// Only portfolio runs print this line, so fast-effort output stays
		// byte-identical to the historical reports (and their goldens).
		b = append(b, "  portfolio: "...)
		b = strconv.AppendInt(b, int64(s.Stats.StrategiesTried), 10)
		b = append(b, " strategies raced, "...)
		b = append(b, s.Strategy.String()...)
		b = append(b, " won\n"...)
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
		b = append(b, "  optimal: lower-bound="...)
		b = strconv.AppendInt(b, int64(r.Bound.Lower), 10)
		b = append(b, ' ')
		b = append(b, status...)
		b = append(b, " (pruned "...)
		b = strconv.AppendInt(b, s.Stats.PrunedNodes, 10)
		b = append(b, " nodes)\n"...)
	}
	b = append(b, "  IPC static="...)
	b = strconv.AppendFloat(b, r.IPCStatic, 'f', 2, 64)
	b = append(b, " dynamic="...)
	b = strconv.AppendFloat(b, r.IPCDynamic, 'f', 2, 64)
	b = append(b, "\n  queues: private<="...)
	b = strconv.AppendInt(b, int64(r.Queues), 10)
	b = append(b, " per cluster, ring<="...)
	b = strconv.AppendInt(b, int64(r.RingQueues), 10)
	b = append(b, " per link, max depth "...)
	b = strconv.AppendInt(b, int64(r.Alloc.MaxDepth()), 10)
	b = append(b, '\n')
	return string(b)
}

// kernelCellWidth is the width, in runes, KernelSchedule pads each cell
// to; longer cells are left whole.
const kernelCellWidth = 30

// KernelSchedule renders the kernel as an II x FU table: one row per
// modulo cycle, one column per cluster, listing the operations issued
// ("name@time", or "kind#id@time" for unnamed ops), in op order. Like
// Report it renders without fmt, byte-identically to the "cycle %2d |"
// row labels and " %-30s |" cells it is specified by.
func (r *Result) KernelSchedule() string {
	s := r.Sched
	nc := s.Machine.NumClusters()
	// Bucket the ops by cell (row-major), keeping op order within a cell.
	start := make([]int32, s.II*nc+1)
	for id := range s.Loop.Ops {
		start[(s.Time[id]%s.II)*nc+s.Cluster[id]+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	byCell := make([]int32, len(s.Loop.Ops))
	fill := append([]int32(nil), start[:len(start)-1]...)
	for id := range s.Loop.Ops {
		cell := (s.Time[id]%s.II)*nc + s.Cluster[id]
		byCell[fill[cell]] = int32(id)
		fill[cell]++
	}

	b := make([]byte, 0, s.II*(10+nc*(kernelCellWidth+3))+len(s.Loop.Ops)*8)
	for row := 0; row < s.II; row++ {
		b = append(b, "cycle "...)
		if row < 10 {
			b = append(b, ' ') // %2d
		}
		b = strconv.AppendInt(b, int64(row), 10)
		b = append(b, " |"...)
		for c := 0; c < nc; c++ {
			b = append(b, ' ')
			lo := len(b)
			cell := row*nc + c
			for k, id := range byCell[start[cell]:start[cell+1]] {
				if k > 0 {
					b = append(b, ' ')
				}
				op := s.Loop.Ops[id]
				if op.Name != "" {
					b = append(b, op.Name...)
				} else {
					b = append(b, op.Kind.String()...)
					b = append(b, '#')
					b = strconv.AppendInt(b, int64(op.ID), 10)
				}
				b = append(b, '@')
				b = strconv.AppendInt(b, int64(s.Time[id]), 10)
			}
			for w := utf8.RuneCount(b[lo:]); w < kernelCellWidth; w++ {
				b = append(b, ' ')
			}
			b = append(b, " |"...)
		}
		b = append(b, '\n')
	}
	return string(b)
}
