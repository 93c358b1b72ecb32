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
	// Pipeline, when non-nil, memoizes compilations across experiments
	// sharing it: the figures compile heavily overlapping (loop, machine,
	// options) sets, and the cache collapses every repeat into a map hit.
	// RunAll installs one automatically. Nil compiles uncached.
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
	// compilation the experiments actually ran through Pipeline.run (memo
	// misses and uncached compiles alike), so `vliwexp -stage-times` can
	// show where a figure run's time went.
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

// Stats snapshots the cache counters (hits, misses, entries).
func (p *Pipeline) Stats() cache.Stats { return p.c.Stats() }

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

// run compiles l through the engine, adds the stages it ran to p's clock
// (a nil p drops them) and reduces the result to the numbers the figures
// read.
func (p *Pipeline) run(l *ir.Loop, o vliwq.Options) compiled {
	res, err := vliwq.CompileContext(context.Background(), l, o)
	if err != nil {
		return compiled{Err: err}
	}
	if p != nil {
		for _, st := range res.Stages {
			p.stageNanos[st.Stage].Add(st.Duration.Nanoseconds())
		}
	}
	s, a := res.Sched, res.Alloc
	// The dynamic IPC of Figs. 8/9 runs the body trip/U times (at least
	// once), U original iterations per body.
	iters := max(l.TripCount()/s.Loop.UnrollFactor(), 1)
	return compiled{
		II:          s.II,
		MII:         s.MII(),
		StageCount:  s.StageCount(),
		Unrolled:    res.Unrolled,
		RealOps:     metrics.RealOps(s.Loop),
		Copies:      countKind(s.Loop, ir.KCopy),
		Moves:       countKind(s.Loop, ir.KMove),
		Private:     a.MaxPrivateQueues(),
		Ring:        a.MaxRingQueues(),
		Depth:       a.MaxDepth(),
		IPC:         metrics.IPCStatic(s),
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

// compiler returns binding b's per-loop compile function, memoized in
// o.Pipeline when there is one. The options are built once here, so the
// per-loop cache hit is just a map lookup.
func (o Options) compiler(b binding) func(*ir.Loop) compiled {
	b, vo := o.bind(b)
	p := o.Pipeline
	if p == nil {
		return func(l *ir.Loop) compiled { return p.run(l, vo) }
	}
	return func(l *ir.Loop) compiled {
		return p.c.Do(memoKey{l, b}, func() compiled { return p.run(l, vo) })
	}
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

// RunAll regenerates every figure and table in order and writes them to w.
// All experiments share one compilation cache: the figures' (loop, machine,
// options) sets overlap heavily, so each distinct compilation runs once.
// RunAll is deliberately the *paper's* evaluation only: the Portfolio
// sweep (this repo's extension, with its own stressed corpus and a 5x
// scheduling cost at exhaustive effort) runs explicitly via
// `vliwexp -fig portfolio`, keeping RunAll's output and BenchmarkRunAll's
// cost stable against the published baselines.
func RunAll(w io.Writer, opts Options) {
	if opts.Pipeline == nil {
		opts.Pipeline = NewPipeline()
	}
	for _, t := range []*Table{
		Fig3(opts),
		CopyCost(opts),
		Fig4(opts),
		UnrollQueues(opts),
		Fig6(opts),
		ClusterResources(opts),
		Fig8(opts),
		Fig9(opts),
		AblationCopyShape(opts),
		AblationMoveOps(opts),
		AblationCommLatency(opts),
		AblationInvariants(opts),
	} {
		t.Fprint(w)
	}
}
