package exp

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"

	"vliwq"
	"vliwq/internal/cache"
	"vliwq/internal/copyins"
	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/metrics"
	"vliwq/internal/sched"
)

func render(t *Table) string {
	var b bytes.Buffer
	t.Fprint(&b)
	return b.String()
}

// compileVia compiles l under b through p's memo.
func compileVia(p *Pipeline, l *ir.Loop, b binding) (c compiled) {
	Options{Pipeline: p}.plan([]binding{b}).each(l, func(_ int, got compiled) { c = got })
	return c
}

// TestPipelineCacheMatchesUncached is the cache's determinism contract:
// every experiment must produce table-for-table identical output whether
// its compilations come from a Pipeline shared across figures or from the
// fresh one a figure called without a Pipeline compiles on.
func TestPipelineCacheMatchesUncached(t *testing.T) {
	loops := corpus.Generate(corpus.Params{Seed: 11, N: 16})
	figs := []struct {
		name string
		fn   func(Options) *Table
	}{
		{"fig3", Fig3}, {"copycost", CopyCost},
		{"fig4", Fig4}, {"unrollqueues", UnrollQueues},
		{"fig6", Fig6}, {"clusterres", ClusterResources},
		{"fig8", Fig8}, {"fig9", Fig9},
		{"ablation-copyshape", AblationCopyShape},
		{"ablation-moves", AblationMoveOps},
		{"ablation-commlat", AblationCommLatency},
		{"ablation-invariants", AblationInvariants},
	}
	cached := Options{Loops: loops, Pipeline: NewPipeline()}
	uncached := Options{Loops: loops}
	for _, f := range figs {
		want := render(f.fn(uncached))
		got := render(f.fn(cached))
		if got != want {
			t.Errorf("%s: cached output differs from uncached:\n--- uncached ---\n%s--- cached ---\n%s", f.name, want, got)
		}
		// A second cached run — now fully served from the memo — must also
		// agree.
		if again := render(f.fn(cached)); again != want {
			t.Errorf("%s: cache-hit output differs from uncached", f.name)
		}
	}
}

// TestRunAllMatchesFiguresOneAtATime: RunAll's output is the twelve
// paper figures' tables, each computed alone on a fresh pipeline, in
// order. RunAll's shared pass over every figure's bindings must change no
// number of any figure.
func TestRunAllMatchesFiguresOneAtATime(t *testing.T) {
	loops := corpus.Generate(corpus.Params{Seed: 13, N: 16})
	var want bytes.Buffer
	for _, fn := range []func(Options) *Table{
		Fig3, CopyCost, Fig4, UnrollQueues, Fig6, ClusterResources, Fig8, Fig9,
		AblationCopyShape, AblationMoveOps, AblationCommLatency, AblationInvariants,
	} {
		fn(Options{Loops: loops, Pipeline: NewPipeline()}).Fprint(&want)
	}
	var got bytes.Buffer
	RunAll(&got, Options{Loops: loops})
	if got.String() != want.String() {
		t.Fatalf("RunAll differs from the figures run one at a time:\n--- RunAll ---\n%s--- one at a time ---\n%s", got.String(), want.String())
	}
}

// TestRunAllCompilesEachBindingOnce: RunAll compiles every loop once under
// each distinct binding the paper figures declare, all in its first pass,
// and no figure's own pass then compiles anything. A figure that compiled
// a binding outside its declared list would miss the memo here, and its
// compiles would share no body with the other figures'.
func TestRunAllCompilesEachBindingOnce(t *testing.T) {
	loops := corpus.Generate(corpus.Params{Seed: 9, N: 10})
	opts := Options{Loops: loops, Pipeline: NewPipeline()}
	RunAll(io.Discard, opts)
	distinct := int64(len(paperBindings()))
	if st := opts.Pipeline.c.Stats(); st.Misses != int64(len(loops))*distinct {
		t.Fatalf("RunAll made %d compiles, want %d loops x %d bindings", st.Misses, len(loops), distinct)
	}

	opts.Pipeline = NewPipeline()
	opts.plan(paperBindings()).warm(loops, opts.workers())
	misses := opts.Pipeline.c.Stats().Misses
	if misses != int64(len(loops))*distinct {
		t.Fatalf("the shared pass made %d compiles, want %d", misses, int64(len(loops))*distinct)
	}
	for _, f := range paperFigures {
		tab := f.fn(opts)
		if again := opts.Pipeline.c.Stats().Misses; again != misses {
			t.Fatalf("%s compiled %d bindings the shared pass had not", tab.ID, again-misses)
		}
	}
}

// TestRunAllDeterministic runs the whole suite twice with independent
// caches and worker pools; the rendered bytes must match exactly.
func TestRunAllDeterministic(t *testing.T) {
	loops := corpus.Generate(corpus.Params{Seed: 7, N: 12})
	var a, b bytes.Buffer
	RunAll(&a, Options{Loops: loops, Workers: 4})
	RunAll(&b, Options{Loops: loops, Workers: 1})
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("RunAll output depends on run or worker count:\n--- run 1 ---\n%s--- run 2 ---\n%s", a.String(), b.String())
	}
}

// TestPipelineKeySeparation ensures the binding keeps distinct machines and
// pipeline options apart: a cache shared across experiments must never
// serve a compilation for the wrong configuration. Each distinct binding
// is one miss and one entry, the repeat is a hit, and every entry holds
// the numbers of a direct engine compile under its binding's options.
func TestPipelineKeySeparation(t *testing.T) {
	p := NewPipeline()
	l, fan := corpus.Daxpy(), corpus.ComplexMul()
	cases := []struct {
		l *ir.Loop
		b binding
	}{
		{l, binding{spec: "single:4", shape: copyins.Tree}},
		{l, binding{spec: "single:12", shape: copyins.Tree}},
		{l, binding{spec: "clustered:4", shape: copyins.Tree}},
		{l, binding{spec: "clustered:4", moves: true, shape: copyins.Tree}},
		{l, binding{spec: "clustered:4", commLat: 1, shape: copyins.Tree}},
		// Copies off and a tree on one machine are two entries; on a
		// fanout loop only the tree compile carries copy operations.
		{fan, binding{spec: "single:4", shape: copyins.None}},
		{fan, binding{spec: "single:4", shape: copyins.Tree}},
	}
	got := make([]compiled, len(cases))
	for i, tc := range cases {
		got[i] = compileVia(p, tc.l, tc.b)
		if st := p.c.Stats(); st.Misses != int64(i+1) || st.Entries != int64(i+1) || st.Hits != 0 {
			t.Fatalf("%+v: stats %+v, want one miss and one entry per distinct binding", tc.b, st)
		}
		_, vo := Options{}.bind(tc.b)
		res, err := vliwq.CompileContext(context.Background(), tc.l, vo)
		if err != nil || got[i].Err != nil {
			t.Fatalf("%+v: compile errors: %v, %v", tc.b, err, got[i].Err)
		}
		if m := res.Sched.Machine; m.CommLatency != tc.b.commLat || m.AllowMoves != tc.b.moves {
			t.Fatalf("%+v: direct compile ran on comm latency %d, moves %v", tc.b, m.CommLatency, m.AllowMoves)
		}
		checkNumbers(t, fmt.Sprintf("%+v", tc.b), tc.l, got[i], res)
	}
	if got[0].II == got[1].II {
		t.Fatalf("4-FU and 12-FU compilations collided in the cache (II %d == %d)", got[0].II, got[1].II)
	}
	if got[5].Copies != 0 || got[6].Copies == 0 {
		t.Fatalf("copies-off/tree entries collided: %d and %d copy ops", got[5].Copies, got[6].Copies)
	}
	// Identical inputs must share one entry.
	if again := compileVia(p, l, cases[0].b); again != got[0] {
		t.Fatalf("repeat compile returned %+v, want the entry's %+v", again, got[0])
	}
	if st := p.c.Stats(); st.Hits != 1 || st.Misses != int64(len(cases)) || st.Entries != int64(len(cases)) {
		t.Fatalf("stats after the repeat = %+v, want 1 hit over %d entries", st, len(cases))
	}
}

// checkNumbers holds c, what the memo keeps of compiling l, to the engine's
// full result of that compile: every number a figure reads must be the one
// the schedule and the allocation give. The dynamic IPC is checked against
// metrics.DynamicAggregate, which counts the body's executions itself.
func checkNumbers(t *testing.T, what string, l *ir.Loop, c compiled, res *vliwq.Result) {
	t.Helper()
	s, a := res.Sched, res.Alloc
	var real, copies, moves int
	for _, op := range s.Loop.Ops {
		switch op.Kind {
		case ir.KCopy:
			copies++
		case ir.KMove:
			moves++
		default:
			real++
		}
	}
	want := compiled{
		II: s.II, MII: s.MII(), StageCount: s.StageCount(),
		Unrolled: res.Unrolled,
		RealOps:  real, Copies: copies, Moves: moves,
		Private: a.MaxPrivateQueues(), Ring: a.MaxRingQueues(), Depth: a.MaxDepth(),
		IPC:   float64(real) / float64(s.II),
		Iters: c.Iters, Cycles: metrics.Cycles(s, c.Iters),
		Bound: s.Bound, Strategy: s.Strategy, PrunedNodes: s.Stats.PrunedNodes,
	}
	if c != want {
		t.Fatalf("%s on %s: memo keeps %+v, the full result gives %+v", what, l.Name, c, want)
	}
	var dyn metrics.DynamicAggregate
	dyn.Add(s, l.TripCount())
	if ipc := float64(c.RealOps*c.Iters) / float64(c.Cycles); ipc != dyn.IPC() {
		t.Fatalf("%s on %s: dynamic IPC %v from %d body runs, want %v", what, l.Name, ipc, c.Iters, dyn.IPC())
	}
}

// memoEntries lists every kept entry of p, read through the cache's
// snapshot walk.
func memoEntries(t *testing.T, p *Pipeline) map[memoKey]compiled {
	t.Helper()
	out := map[memoKey]compiled{}
	var k memoKey
	codec := cache.Codec[memoKey, compiled]{
		EncodeKey:   func(key memoKey) ([]byte, error) { k = key; return nil, nil },
		EncodeValue: func(c compiled) ([]byte, error) { out[k] = c; return nil, nil },
	}
	if _, err := p.c.Save(io.Discard, codec); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCompiledMatchesFullResult recompiles every entry RunAll leaves in its
// memo, plus the certified sweep's exhaustive and optimal entries (the
// only ones carrying a Bound, a raced Strategy and pruned nodes), directly
// through the engine, and holds each entry's numbers to the full result.
func TestCompiledMatchesFullResult(t *testing.T) {
	sp := corpus.StressedParams()
	sp.N = 6
	opts := Options{
		Loops:         corpus.Generate(corpus.Params{Seed: 5, N: 10}),
		StressedLoops: corpus.Generate(sp),
		Pipeline:      NewPipeline(),
	}
	RunAll(io.Discard, opts)
	Optimal(opts)
	entries := memoEntries(t, opts.Pipeline)
	if n := opts.Pipeline.c.Stats().Entries; int64(len(entries)) != n {
		t.Fatalf("walked %d of %d memo entries", len(entries), n)
	}
	bindings := map[binding]bool{}
	var bounded, raced, errs int
	for k, c := range entries {
		bindings[k.binding] = true
		_, vo := Options{}.bind(k.binding)
		res, err := vliwq.CompileContext(context.Background(), k.loop, vo)
		if err != nil || c.Err != nil {
			if err == nil || c.Err == nil || err.Error() != c.Err.Error() {
				t.Fatalf("%+v on %s: memo error %v, direct compile error %v", k.binding, k.loop.Name, c.Err, err)
			}
			if c != (compiled{Err: c.Err}) {
				t.Fatalf("%+v on %s: failed compile kept numbers %+v", k.binding, k.loop.Name, c)
			}
			errs++
			continue
		}
		checkNumbers(t, fmt.Sprintf("%+v", k.binding), k.loop, c, res)
		if c.Bound.Lower > 0 {
			bounded++
		}
		if c.Strategy != sched.StrategyBaseline {
			raced++
		}
	}
	t.Logf("%d entries over %d bindings: %d with a Bound, %d won by another strategy, %d failed",
		len(entries), len(bindings), bounded, raced, errs)
	if bounded == 0 || raced == 0 {
		t.Fatalf("the certified entries carried no Bound (%d) or no raced strategy (%d)", bounded, raced)
	}
}

// TestStandardCorpusMemoized verifies corpus.Standard returns the shared
// corpus instance, the property the cross-figure cache keys rely on.
func TestStandardCorpusMemoized(t *testing.T) {
	a, b := corpus.Standard(), corpus.Standard()
	if len(a) != corpus.PaperCorpusSize {
		t.Fatalf("standard corpus has %d loops", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Standard() regenerated loop %d", i)
		}
	}
}

// TestPipelineStatsCounters checks the Pipeline's memo counters: a second
// identical compile is a hit, not a recompute.
func TestPipelineStatsCounters(t *testing.T) {
	p := NewPipeline()
	l := corpus.Daxpy()
	compileVia(p, l, binding{spec: "single:4"})
	compileVia(p, l, binding{spec: "single:4"})
	st := p.c.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss, 1 hit, 1 entry", st)
	}
}

// TestPipelineStageNanos: the per-stage clocks count actual compilations
// only — a cache hit adds nothing — and key by the facade's stage names.
func TestPipelineStageNanos(t *testing.T) {
	p := NewPipeline()
	l := corpus.Daxpy()
	compileVia(p, l, binding{spec: "single:4"})
	first := p.StageNanos()
	if first["schedule"] <= 0 || first["alloc"] <= 0 || first["copies"] <= 0 {
		t.Fatalf("stage nanos missing executed stages: %v", first)
	}
	compileVia(p, l, binding{spec: "single:4"}) // hit
	if again := p.StageNanos()["schedule"]; again != first["schedule"] {
		t.Fatalf("a cache hit advanced the schedule clock: %d -> %d", first["schedule"], again)
	}
}

// TestAblationInvariantsClocksHoistedCompiles: the hoisted variants compile
// uncached on every run, so a second run on a warm Pipeline — every base
// compile a hit — must still advance the schedule clock. Their stage time
// belongs to the stages, not to the experiment's own time.
func TestAblationInvariantsClocksHoistedCompiles(t *testing.T) {
	opts := small()
	opts.Pipeline = NewPipeline()
	AblationInvariants(opts)
	first := opts.Pipeline.StageNanos()["schedule"]
	misses := opts.Pipeline.c.Stats().Misses
	AblationInvariants(opts)
	if again := opts.Pipeline.StageNanos()["schedule"]; again <= first {
		t.Fatalf("second run did not clock the hoisted compiles: schedule %d -> %d ns", first, again)
	}
	if again := opts.Pipeline.c.Stats().Misses; again != misses {
		t.Fatalf("hoisted compiles entered the memo: misses %d -> %d", misses, again)
	}
}
