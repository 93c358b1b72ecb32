// Package exp regenerates every table and figure of the paper's evaluation
// (see DESIGN.md §5 for the experiment index). Each experiment consumes a
// loop corpus, drives every loop through the vliwq compile engine
// (unrolling, copy insertion, modulo scheduling / partitioning, queue
// allocation — the engine's schedule and allocation checks included, the
// simulator pass skipped) and reduces the outcomes to the statistic the
// paper plots.
package exp

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"text/tabwriter"

	"vliwq"
	"vliwq/internal/cache"
	"vliwq/internal/copyins"
	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
	"vliwq/internal/metrics"
	"vliwq/internal/pool"
	"vliwq/internal/sched"
)

// Options configure an experiment run.
type Options struct {
	// Loops is the corpus; nil uses corpus.Standard() (1258 loops).
	Loops []*ir.Loop
	// Workers bounds parallel loop compilation; 0 uses GOMAXPROCS.
	Workers int
	// Pipeline memoizes compilations across experiments sharing it: the
	// figures compile heavily overlapping (loop, machine, options) sets,
	// and the cache collapses every repeat into a map hit. RunAll installs
	// one automatically; a figure called without one compiles on a fresh
	// one of its own.
	Pipeline *Pipeline
	// Effort raises the scheduler effort of every experiment that does not
	// pin its own (the portfolio sweep pins effort per row). The zero
	// value is sched.EffortFast — the historical behaviour.
	Effort sched.Effort
	// StressedLoops overrides the stressed corpus of the portfolio sweep;
	// nil uses corpus.Stressed().
	StressedLoops []*ir.Loop
}

func (o Options) loops() []*ir.Loop {
	if o.Loops != nil {
		return o.Loops
	}
	return corpus.Standard()
}

func (o Options) stressedLoops() []*ir.Loop {
	if o.StressedLoops != nil {
		return o.StressedLoops
	}
	return corpus.Stressed()
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Table is a rendered experiment result.
type Table struct {
	ID     string // e.g. "fig3"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for i, h := range t.Header {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, h)
	}
	fmt.Fprintln(tw)
	for _, row := range t.Rows {
		for i, c := range row {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, c)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// compiled is what the experiments read of one loop through the engine:
// the numbers the figures reduce, derived once when the loop compiles, or
// the error that stopped it. The memo keeps only these, not the engine's
// Result, schedule or allocation, so an entry costs a few hundred bytes
// instead of a compiled loop body and its queue allocation.
type compiled struct {
	II, MII, StageCount int
	// Unrolled is the unroll factor the engine applied (Result.Unrolled).
	Unrolled int
	// RealOps, Copies and Moves count the scheduled body's program
	// operations and the copy and move operations the compiler added.
	RealOps, Copies, Moves int
	// Private, Ring and Depth are the allocation's queue maxima.
	Private, Ring, Depth int
	// IPC is the static issue rate, and Iters and Cycles the executions of
	// the scheduled body over the loop's trip count and the cycles they
	// take, prologue and epilogue included (Figs. 8 and 9).
	IPC           float64
	Iters, Cycles int

	Bound       sched.Bound
	Strategy    sched.Strategy
	PrunedNodes int64
	Err         error
}

// binding is one figure's compile configuration: everything but the loop.
// It is the Pipeline memo key, next to the loop pointer, and the only input
// the engine's vliwq.Options are built from. spec is a vliwq.ParseMachine
// spec, commLat and moves are the machine knobs that notation leaves out,
// and shape copyins.None switches copy insertion off (the simultaneous
// writes of paper Fig. 1(c)).
type binding struct {
	spec    string
	commLat int
	moves   bool
	unroll  bool
	shape   copyins.Shape
	effort  sched.Effort
}

// on is machine m's binding with the given copy shape and no unrolling.
func on(m machine.Config, shape copyins.Shape) binding {
	return binding{spec: m.Spec(), shape: shape}
}

// unrolled is machine m's binding in the paper's partitioning
// experiments: loop unrolling and balanced copy trees.
func unrolled(m machine.Config) binding {
	b := on(m, copyins.Tree)
	b.unroll = true
	return b
}

// memoKey is one Pipeline entry: a loop, by pointer, under one binding.
type memoKey struct {
	loop *ir.Loop
	binding
}

// Pipeline is a concurrency-safe memo of engine compilations. The loop is
// keyed by pointer: all experiments sharing a Pipeline also share their
// corpus slice (RunAll uses one Options value; corpus.Standard is
// memoized), so pointer identity is exactly loop identity and avoids
// hashing whole dependence graphs. An entry is a compiled value: numbers
// only, nothing shared. The storage is a sharded internal/cache.Cache, so
// concurrent workers contend per shard, and its singleflight runs each
// distinct compilation exactly once: the first caller computes, and a
// caller that arrives meanwhile waits on a done channel the entry makes
// only for waiters.
type Pipeline struct {
	c *cache.Cache[memoKey, compiled]

	// stageNanos sums, per vliwq.Stage, the Result.Stages of every
	// compilation the experiments actually ran (memo misses and the
	// hoisted invariant variants' unmemoized compiles alike), so
	// `vliwexp -stage-times` can show where a figure run's time went.
	stageNanos [vliwq.NumStages]atomic.Int64
}

// NewPipeline returns an empty, unbounded compilation cache.
func NewPipeline() *Pipeline {
	// Loop names are unique within a corpus and carry most of the entropy;
	// the spec keeps one loop's machine sweep off a single shard. Equality
	// is still the whole memoKey — the hash only picks the shard.
	hash := func(k memoKey) uint64 { return cache.StringHash(k.loop.Name) ^ cache.StringHash(k.spec) }
	return &Pipeline{c: cache.New[memoKey, compiled](cache.Options{}, hash)}
}

// StageNanos reports the accumulated per-stage compile time, keyed by
// stage name (vliwq.Stage.String). Only stages with nonzero time appear.
func (p *Pipeline) StageNanos() map[string]int64 {
	out := make(map[string]int64, len(p.stageNanos))
	for i := range p.stageNanos {
		if n := p.stageNanos[i].Load(); n > 0 {
			out[vliwq.Stage(i).String()] = n
		}
	}
	return out
}

// outcome adds the stages one compile of l ran to p's clock and reduces
// its result to the numbers the figures read.
func (p *Pipeline) outcome(l *ir.Loop, r vliwq.BatchResult) compiled {
	if r.Err != nil {
		return compiled{Err: r.Err}
	}
	res := r.Result
	for _, st := range res.Stages {
		p.stageNanos[st.Stage].Add(st.Duration.Nanoseconds())
	}
	s := res.Sched
	// The dynamic IPC of Figs. 8/9 runs the body trip/U times (at least
	// once), U original iterations per body.
	iters := max(l.TripCount()/s.Loop.UnrollFactor(), 1)
	return compiled{
		II:          res.II,
		MII:         res.MII,
		StageCount:  res.StageCount,
		Unrolled:    res.Unrolled,
		RealOps:     metrics.RealOps(s.Loop),
		Copies:      countKind(s.Loop, ir.KCopy),
		Moves:       countKind(s.Loop, ir.KMove),
		Private:     res.Queues,
		Ring:        res.RingQueues,
		Depth:       res.Alloc.MaxDepth(),
		IPC:         res.IPCStatic,
		Iters:       iters,
		Cycles:      metrics.Cycles(s, iters),
		Bound:       s.Bound,
		Strategy:    s.Strategy,
		PrunedNodes: s.Stats.PrunedNodes,
	}
}

// countKind counts l's operations of kind k.
func countKind(l *ir.Loop, k ir.OpKind) int {
	n := 0
	for _, op := range l.Ops {
		if op.Kind == k {
			n++
		}
	}
	return n
}

// bind applies the sweep-wide effort to a binding that does not pin its own
// (EffortFast is the zero value, so a pinned fast row is indistinguishable
// from "unset" — the portfolio sweep clears the sweep-wide effort before
// binding instead) and builds the engine options the binding denotes. The
// simulator pass is skipped; the engine's schedule and allocation checks
// still run.
func (o Options) bind(b binding) (binding, vliwq.Options) {
	if b.effort == sched.EffortFast {
		b.effort = o.Effort
	}
	m, err := vliwq.ParseMachine(b.spec)
	if err != nil {
		// Every spec is rendered by machine.Config.Spec from a constructor
		// machine, which round-trips by contract.
		panic("exp: " + err.Error())
	}
	m.CommLatency, m.AllowMoves = b.commLat, b.moves
	return b, vliwq.Options{Machine: m, Unroll: b.unroll, CopyShape: b.shape, SkipVerify: true, Effort: b.effort}
}

// plan is a figure's bindings under one Options: the pipeline that
// memoizes them, the memo key each binding is kept under and the engine
// options it denotes, built once per figure.
type plan struct {
	p    *Pipeline
	keys []binding
	opts []vliwq.Options
}

// plan binds every binding of bs (see bind) on o's pipeline, or on a fresh
// one when o has none.
func (o Options) plan(bs []binding) *plan {
	p := o.Pipeline
	if p == nil {
		p = NewPipeline()
	}
	pl := &plan{p: p, keys: make([]binding, len(bs)), opts: make([]vliwq.Options, len(bs))}
	for j, b := range bs {
		pl.keys[j], pl.opts[j] = o.bind(b)
	}
	return pl
}

// each calls fn with l's outcome under every binding of the plan, in the
// plan's order. Each binding is one memo lookup, and the first that misses
// compiles, in one vliwq.CompileEach call, itself and every later binding
// the memo does not hold yet, so bindings that unroll and insert copies
// alike share l's transformed bodies; their lookups then find those
// outcomes.
func (pl *plan) each(l *ir.Loop, fn func(j int, c compiled)) {
	var fresh []compiled
	var ready []bool // ready[j]: fresh[j] holds l's outcome under binding j
	for j, b := range pl.keys {
		fn(j, pl.p.c.Do(memoKey{l, b}, func() compiled {
			if ready == nil {
				fresh, ready = make([]compiled, len(pl.keys)), make([]bool, len(pl.keys))
			}
			if !ready[j] {
				pl.compileFrom(l, j, fresh, ready)
			}
			return fresh[j]
		}))
	}
}

// compileFrom compiles l, in one vliwq.CompileEach call, under binding j
// and every later binding whose outcome the memo does not hold yet, into
// fresh, and marks each ready.
func (pl *plan) compileFrom(l *ir.Loop, j int, fresh []compiled, ready []bool) {
	idx := []int{j}
	for k := j + 1; k < len(pl.keys); k++ {
		if _, ok := pl.p.c.Get(memoKey{l, pl.keys[k]}); !ok {
			idx = append(idx, k)
		}
	}
	opts := make([]vliwq.Options, len(idx))
	for n, k := range idx {
		opts[n] = pl.opts[k]
	}
	for n, r := range vliwq.CompileEach(context.Background(), l, opts) {
		fresh[idx[n]], ready[idx[n]] = pl.p.outcome(l, r), true
	}
}

// warm compiles every loop under every binding of the plan into its
// pipeline, loop-major on the shared worker pool, keeping nothing else.
func (pl *plan) warm(loops []*ir.Loop, workers int) {
	pool.Run(context.Background(), len(loops), workers, func(i int) {
		pl.each(loops[i], func(int, compiled) {})
	}, nil)
}

// sweep compiles every loop under every binding of bs, loop-major: one
// pool item per loop compiles it under all of them (see plan.each). It
// returns pick of each outcome, out[i][j] for loops[i] under bs[j], so a
// figure keeps only the numbers it reduces and reduces them on the calling
// goroutine.
func sweep[T any](o Options, loops []*ir.Loop, bs []binding, pick func(compiled) T) [][]T {
	pl := o.plan(bs)
	n := len(bs)
	cells := make([]T, len(loops)*n)
	rows := make([][]T, len(loops))
	for i := range rows {
		rows[i] = cells[i*n : (i+1)*n : (i+1)*n]
	}
	pool.Run(context.Background(), len(loops), o.workers(), func(i int) {
		row := rows[i]
		pl.each(loops[i], func(j int, c compiled) { row[j] = pick(c) })
	}, nil)
	return rows
}

// forEach compiles fn over the corpus on the shared fixed worker pool
// (internal/pool), keeping result order aligned with the input order.
func forEach[T any](loops []*ir.Loop, workers int, fn func(l *ir.Loop) T) []T {
	out := make([]T, len(loops))
	pool.Run(context.Background(), len(loops), workers, func(i int) {
		out[i] = fn(loops[i])
	}, nil)
	return out
}

func pct(n, total int) string {
	if total == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(total))
}

// paperFigures are RunAll's figures in output order, each with the one
// list of bindings it compiles its loops under. Fig. 9 compiles a subset
// of the loops under Fig. 8's list, and AblationInvariants also compiles a
// hoisted variant of each loop under its list, outside the memo.
var paperFigures = []struct {
	fn       func(Options) *Table
	bindings []binding
}{
	{Fig3, copyBindings},
	{CopyCost, copyBindings},
	{Fig4, unrollBindings},
	{UnrollQueues, unrollBindings},
	{Fig6, fig6Bindings},
	{ClusterResources, clusterBindings},
	{Fig8, ipcBindings},
	{Fig9, ipcBindings},
	{AblationCopyShape, copyShapeBindings},
	{AblationMoveOps, moveBindings},
	{AblationCommLatency, commLatBindings},
	{AblationInvariants, invariantBindings},
}

// paperBindings is the union of the paper figures' bindings, each once,
// in the order they first appear.
func paperBindings() []binding {
	seen := map[binding]bool{}
	var out []binding
	for _, f := range paperFigures {
		for _, b := range f.bindings {
			if !seen[b] {
				seen[b] = true
				out = append(out, b)
			}
		}
	}
	return out
}

// RunAll regenerates every figure and table in order and writes them to w.
// All experiments share one compilation cache, which RunAll first fills in
// one loop-major pass over the union of their bindings: each loop compiles
// under all of them in one vliwq.CompileEach call, so the figures share
// its transformed bodies as well as its compilations, and each figure's
// own pass then finds every outcome memoized.
// RunAll is deliberately the *paper's* evaluation only: the Portfolio
// sweep (this repo's extension, with its own stressed corpus and a 5x
// scheduling cost at exhaustive effort) runs explicitly via
// `vliwexp -fig portfolio`, keeping RunAll's output and BenchmarkRunAll's
// cost stable against the published baselines.
func RunAll(w io.Writer, opts Options) {
	if opts.Pipeline == nil {
		opts.Pipeline = NewPipeline()
	}
	opts.plan(paperBindings()).warm(opts.loops(), opts.workers())
	for _, f := range paperFigures {
		f.fn(opts).Fprint(w)
	}
}
