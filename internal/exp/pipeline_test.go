package exp

import (
	"bytes"
	"testing"

	"vliwq/internal/copyins"
	"vliwq/internal/corpus"
	"vliwq/internal/ir"
)

func render(t *Table) string {
	var b bytes.Buffer
	t.Fprint(&b)
	return b.String()
}

// compileVia compiles l under b through p's memo.
func compileVia(p *Pipeline, l *ir.Loop, b binding) compiled {
	return Options{Pipeline: p}.compiler(b)(l)
}

// TestPipelineCacheMatchesUncached is the cache's determinism contract:
// every experiment must produce table-for-table identical output whether
// its compilations come from a shared Pipeline or run uncached.
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
// serve a compilation for the wrong configuration.
func TestPipelineKeySeparation(t *testing.T) {
	p := NewPipeline()
	l := corpus.Daxpy()
	a := compileVia(p, l, binding{spec: "single:4", shape: copyins.Tree})
	b := compileVia(p, l, binding{spec: "single:12", shape: copyins.Tree})
	if a.Err != nil || b.Err != nil {
		t.Fatalf("compile errors: %v, %v", a.Err, b.Err)
	}
	if a.Sched.II == b.Sched.II {
		t.Fatalf("4-FU and 12-FU compilations collided in the cache (II %d == %d)", a.Sched.II, b.Sched.II)
	}
	c := compileVia(p, l, binding{spec: "clustered:4", shape: copyins.Tree})
	d := compileVia(p, l, binding{spec: "clustered:4", moves: true, shape: copyins.Tree})
	if c.Sched == d.Sched {
		t.Fatalf("AllowMoves variant shares the base machine's cache entry")
	}
	lat1 := compileVia(p, l, binding{spec: "clustered:4", commLat: 1, shape: copyins.Tree})
	if lat1.Sched == c.Sched || lat1.Sched.Machine.CommLatency != 1 {
		t.Fatalf("comm latency 1 shares the latency-0 cache entry")
	}
	// Copies off and a tree on one machine are two entries; on a fanout
	// loop only the tree compile carries copy operations.
	fan := corpus.ComplexMul()
	off := compileVia(p, fan, binding{spec: "single:4", shape: copyins.None})
	tree := compileVia(p, fan, binding{spec: "single:4", shape: copyins.Tree})
	if off.Err != nil || tree.Err != nil {
		t.Fatalf("compile errors: %v, %v", off.Err, tree.Err)
	}
	if copyOps(off) != 0 || copyOps(tree) == 0 {
		t.Fatalf("copies-off/tree entries collided: %d and %d copy ops", copyOps(off), copyOps(tree))
	}
	// Identical inputs must share one entry (pointer-equal results).
	e := compileVia(p, l, binding{spec: "single:4", shape: copyins.Tree})
	if e.Sched != a.Sched {
		t.Fatalf("identical compilation did not hit the cache")
	}
}

func copyOps(c compiled) int {
	n := 0
	for _, op := range c.Sched.Loop.Ops {
		if op.Kind == ir.KCopy {
			n++
		}
	}
	return n
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

// TestPipelineStatsCounters checks the Pipeline exposes the shared cache's
// counters: a second identical compile is a hit, not a recompute.
func TestPipelineStatsCounters(t *testing.T) {
	p := NewPipeline()
	l := corpus.Daxpy()
	compileVia(p, l, binding{spec: "single:4"})
	compileVia(p, l, binding{spec: "single:4"})
	st := p.Stats()
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
	misses := opts.Pipeline.Stats().Misses
	AblationInvariants(opts)
	if again := opts.Pipeline.StageNanos()["schedule"]; again <= first {
		t.Fatalf("second run did not clock the hoisted compiles: schedule %d -> %d ns", first, again)
	}
	if again := opts.Pipeline.Stats().Misses; again != misses {
		t.Fatalf("hoisted compiles entered the memo: misses %d -> %d", misses, again)
	}
}
